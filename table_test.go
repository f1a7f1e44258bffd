package ipsketch

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hashing"
)

// lakeTables builds two larger tables with a controlled key overlap and a
// known linear relationship between their value columns.
func lakeTables(t *testing.T, seed uint64) (*Table, *Table) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	const n = 600
	keysA := make([]uint64, n)
	keysB := make([]uint64, n)
	va := make([]float64, n)
	vb := make([]float64, n)
	for i := 0; i < n; i++ {
		keysA[i] = uint64(i)
		keysB[i] = uint64(i + n/2) // 50% key overlap
		va[i] = rng.Norm()
		vb[i] = rng.Norm()
	}
	a, err := NewTable("A", keysA, map[string][]float64{"v": va})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTable("B", keysB, map[string][]float64{"v": vb})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestTableSketcherValidation(t *testing.T) {
	if _, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 0}, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 100, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.keySpace != DefaultKeySpace {
		t.Fatal("keySpace 0 should select DefaultKeySpace")
	}
}

func TestSketchTableColumnsAndStorage(t *testing.T) {
	a, _ := lakeTables(t, 1)
	ts, _ := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 1}, 1<<20)
	sk, err := ts.SketchTable(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.Columns()) != 1 || sk.Columns()[0] != "v" {
		t.Fatalf("Columns = %v", sk.Columns())
	}
	// key + value + squared-value sketches.
	if sk.StorageWords() != 3*60 {
		t.Fatalf("StorageWords = %v, want 180", sk.StorageWords())
	}
	if sk.KeySketch() == nil {
		t.Fatal("KeySketch nil")
	}
	if _, err := sk.ColumnSketch("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.ColumnSketch("missing"); err == nil {
		t.Fatal("missing column sketch returned")
	}
}

func TestSketchTableMissingColumn(t *testing.T) {
	a, _ := lakeTables(t, 2)
	ts, _ := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 1}, 1<<20)
	if _, err := ts.SketchTable(a, "missing"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestEstimateJoinStatsAgainstExact(t *testing.T) {
	a, b := lakeTables(t, 3)
	exact, err := ExactJoinStats(a, "v", b, "v")
	if err != nil {
		t.Fatal(err)
	}
	if exact.Size != 300 {
		t.Fatalf("test setup: exact join size %v, want 300", exact.Size)
	}

	ts, _ := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 2000, Seed: 5}, 1<<20)
	ska, err := ts.SketchTable(a)
	if err != nil {
		t.Fatal(err)
	}
	skb, err := ts.SketchTable(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateJoinStats(ska, "v", skb, "v")
	if err != nil {
		t.Fatal(err)
	}

	relTo := func(est, want, scale float64) float64 { return math.Abs(est-want) / scale }
	if relTo(got.Size, exact.Size, exact.Size) > 0.2 {
		t.Errorf("Size estimate %v, want ~%v", got.Size, exact.Size)
	}
	// Sums/means of mean-zero normals are near zero; compare on the scale
	// of √size (the natural std of the sum).
	scale := math.Sqrt(exact.Size)
	if relTo(got.SumA, exact.SumA, scale) > 3 {
		t.Errorf("SumA estimate %v, want ~%v", got.SumA, exact.SumA)
	}
	if relTo(got.VarA, exact.VarA, exact.VarA) > 0.5 {
		t.Errorf("VarA estimate %v, want ~%v", got.VarA, exact.VarA)
	}
	if math.IsNaN(got.Correlation) {
		t.Error("Correlation estimate NaN for a valid join")
	}
	if got.Correlation < -1 || got.Correlation > 1 {
		t.Errorf("Correlation %v outside [-1,1]", got.Correlation)
	}
}

func TestEstimateJoinStatsDetectsCorrelation(t *testing.T) {
	// B's column is exactly 0.9·A's on the shared keys: the estimated
	// post-join correlation must come out strongly positive.
	rng := hashing.NewSplitMix64(7)
	const n = 500
	keys := make([]uint64, n)
	va := make([]float64, n)
	vb := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(i)
		va[i] = rng.Norm()
		vb[i] = 0.9 * va[i]
	}
	a, _ := NewTable("A", keys, map[string][]float64{"v": va})
	b, _ := NewTable("B", keys, map[string][]float64{"v": vb})

	ts, _ := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 3000, Seed: 9}, 1<<20)
	ska, _ := ts.SketchTable(a)
	skb, _ := ts.SketchTable(b)
	got, err := EstimateJoinStats(ska, "v", skb, "v")
	if err != nil {
		t.Fatal(err)
	}
	if got.Correlation < 0.7 {
		t.Fatalf("estimated correlation %v, want near 1", got.Correlation)
	}
}

func TestEstimateJoinStatsErrors(t *testing.T) {
	a, b := lakeTables(t, 11)
	ts1, _ := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 1}, 1<<20)
	ts2, _ := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 1}, 1<<21)
	ska, _ := ts1.SketchTable(a)
	skb, _ := ts2.SketchTable(b)
	if _, err := EstimateJoinStats(ska, "v", skb, "v"); err == nil {
		t.Fatal("key-space mismatch accepted")
	}
	skb2, _ := ts1.SketchTable(b)
	if _, err := EstimateJoinStats(ska, "missing", skb2, "v"); err == nil {
		t.Fatal("missing colA accepted")
	}
	if _, err := EstimateJoinStats(ska, "v", skb2, "missing"); err == nil {
		t.Fatal("missing colB accepted")
	}
}

func TestExactJoinStatsEmptyJoin(t *testing.T) {
	a, _ := NewTable("A", []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
	b, _ := NewTable("B", []uint64{10, 20}, map[string][]float64{"v": {1, 2}})
	st, err := ExactJoinStats(a, "v", b, "v")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 0 || !math.IsNaN(st.MeanA) || !math.IsNaN(st.Correlation) {
		t.Fatalf("empty join stats wrong: %+v", st)
	}
}

func TestEstimateJoinStatsPaperFigure2(t *testing.T) {
	// The worked example of the paper, estimated with big sketches so the
	// estimates land close to SIZE=4, SUM_A=12, MEAN_A=3.
	ta, _ := NewTable("T_A",
		[]uint64{1, 3, 4, 5, 6, 7, 8, 9, 11},
		map[string][]float64{"V": {6, 2, 6, 1, 4, 2, 2, 8, 3}})
	tb, _ := NewTable("T_B",
		[]uint64{2, 4, 5, 8, 10, 11, 12, 15, 16},
		map[string][]float64{"V": {1, 5, 1, 2, 4, 2.5, 6, 6, 3.7}})
	// KMV with K larger than both supports retains everything: estimates
	// become exact.
	ts, _ := NewTableSketcher(Config{Method: MethodKMV, StorageWords: 150, Seed: 3}, 64)
	ska, err := ts.SketchTable(ta)
	if err != nil {
		t.Fatal(err)
	}
	skb, err := ts.SketchTable(tb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateJoinStats(ska, "V", skb, "V")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 4 || got.SumA != 12 || got.SumB != 10.5 || got.MeanA != 3 {
		t.Fatalf("exact KMV estimates wrong: %+v", got)
	}
}

// bundleTestTable builds a table whose bundle vectors differ in support and
// weights: column a has zeros (so x_V's support is a strict subset of the
// keys), b has entries that round to weight 0 at any L ≤ 2⁵⁰, and z is all
// zeros (empty x_V and x_{V²}). Keys are spread over keySpace, unsorted.
func bundleTestTable(t testing.TB, keySpace uint64, rows int, seed uint64) *Table {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	stride := keySpace / uint64(rows)
	keys := make([]uint64, rows)
	a, b, z := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	for i := range keys {
		keys[i] = uint64(rows-1-i)*stride + rng.Uint64()%stride
		a[i], b[i] = rng.Norm(), 5+rng.Norm()
		if i%4 == 1 {
			a[i] = 0
		}
		if i%7 == 3 {
			b[i] = 1e-9
		}
	}
	tab, err := NewTable("bundle", keys, map[string][]float64{"a": a, "b": b, "z": z})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSketchTableMatchesSketchPerVector: every table entry point sketches
// a bundle with one builder call — for dart WMH, one shared walk over the
// key set — and each sketch must still be byte-identical to Sketcher.Sketch
// of its own vector, across 1–3 columns, a one-row table, key spaces whose
// resolved L differs (2²⁰) or hits MaxL (2⁴⁰, 2⁶³), and 1 or 2 cores.
func TestSketchTableMatchesSketchPerVector(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfgs := []Config{
		{Method: MethodWMH, StorageWords: 400, Seed: 1},
		{Method: MethodWMH, StorageWords: 120, Seed: 2, Quantize: true},
		{Method: MethodWMH, StorageWords: 64, Seed: 3},
		{Method: MethodPS, StorageWords: 64, Seed: 4},
	}
	colSets := [][]string{{"a"}, {"b", "z"}, {"a", "b", "z"}}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, keySpace := range []uint64{1 << 20, 1 << 40, DefaultKeySpace} {
			tabs := []*Table{bundleTestTable(t, keySpace, 300, keySpace), bundleTestTable(t, keySpace, 1, 9)}
			for _, cfg := range cfgs {
				ts, err := NewTableSketcher(cfg, keySpace)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := ts.NewBuilder()
				if err != nil {
					t.Fatal(err)
				}
				paths := []struct {
					name   string
					sketch func(*Table, ...string) (*TableSketch, error)
				}{{"SketchTable", ts.SketchTable}, {"SketchTableChunked", ts.SketchTableChunked}, {"builder", tb.SketchTable}}
				for ti, tab := range tabs {
					for _, cols := range colSets {
						key, vals, sqs, err := tab.Vectors(keySpace, cols)
						if err != nil {
							t.Fatal(err)
						}
						want := func(v Vector) []byte {
							sk, err := ts.s.Sketch(v)
							if err != nil {
								t.Fatal(err)
							}
							return mustBytes(t, sk)
						}
						for _, p := range paths {
							what := fmt.Sprintf("procs %d keyspace %d %+v table %d cols %v %s", procs, keySpace, cfg, ti, cols, p.name)
							got, err := p.sketch(tab, cols...)
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							if !bytes.Equal(mustBytes(t, got.KeySketch()), want(key)) {
								t.Fatalf("%s: key sketch differs from Sketch(x_1[K])", what)
							}
							for c, col := range cols {
								v, err := got.ColumnSketch(col)
								if err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(mustBytes(t, v), want(vals[c])) {
									t.Fatalf("%s: column %q sketch differs from Sketch(x_V)", what, col)
								}
								ci, _ := got.column(col)
								if !bytes.Equal(mustBytes(t, got.sqVal[ci]), want(sqs[c])) {
									t.Fatalf("%s: column %q squared sketch differs from Sketch(x_V²)", what, col)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTableSketchBuilderAllocs pins the allocations of a warm
// TableSketchBuilder.SketchTable in the served configuration (dart WMH,
// 400 words, DefaultKeySpace). The counts are those of sketching the three
// or five vectors one at a time; sketching them in one call must not add
// any.
func TestTableSketchBuilderAllocs(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	const rows = 500
	keys := make([]uint64, rows)
	a, b := make([]float64, rows), make([]float64, rows)
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
		a[i], b[i] = rng.Norm(), float64(i%5)
	}
	tab, err := NewTable("allocs", keys, map[string][]float64{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 400, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ts.NewBuilder()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cols []string
		max  float64
	}{{[]string{"a"}, 50}, {[]string{"a", "b"}, 80}} {
		if _, err := tb.SketchTable(tab, tc.cols...); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tb.SketchTable(tab, tc.cols...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("warm SketchTable of %d columns allocates %v times per run, want ≤ %v", len(tc.cols), allocs, tc.max)
		}
	}
}

// TestSamplingEstimatorsAllocateNothing: the pairwise estimators of the
// sampling families run the same allocation-free match loops as the
// packed scan, so the decoded search path allocates nothing per pair.
func TestSamplingEstimatorsAllocateNothing(t *testing.T) {
	const rows = 500
	rng := hashing.NewSplitMix64(37)
	var tabs [2]*Table
	for i := range tabs {
		// Keys [250·i, 250·i + rows): the two tables share half their keys.
		keys := make([]uint64, rows)
		vals := make([]float64, rows)
		for r := range keys {
			keys[r] = uint64(250*i + r)
			vals[r] = rng.Norm()
		}
		tab, err := NewTable(fmt.Sprint("t", i), keys, map[string][]float64{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	for _, m := range []Method{MethodWMH, MethodMH, MethodKMV, MethodPS, MethodTS} {
		t.Run(m.String(), func(t *testing.T) {
			ts, err := NewTableSketcher(Config{Method: m, StorageWords: 400, Seed: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			var sks [2]*TableSketch
			for i, tab := range tabs {
				if sks[i], err = ts.SketchTable(tab, "v"); err != nil {
					t.Fatal(err)
				}
			}
			a, b := sks[0], sks[1]
			va, err := a.ColumnSketch("v")
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.ColumnSketch("v")
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name string
				run  func() error
			}{
				{"Estimate", func() error { _, err := Estimate(va, vb); return err }},
				{"EstimateJoinSize", func() error { _, err := EstimateJoinSize(a.key, b.key); return err }},
				{"EstimateJoinStats", func() error { _, err := EstimateJoinStats(a, "v", b, "v"); return err }},
			} {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
				if allocs := testing.AllocsPerRun(20, func() {
					if err := tc.run(); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("%s allocates %v times per pair, want 0", tc.name, allocs)
				}
			}
		})
	}
}

// servedJoinSize sketches two key sets as tables in the served
// configuration (WMH, 400 words) under one seed and key space and returns
// their estimated join size.
func servedJoinSize(t *testing.T, seed, keySpace uint64, a, b []uint64) float64 {
	t.Helper()
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 400, Seed: seed}, keySpace)
	if err != nil {
		t.Fatal(err)
	}
	var sks [2]*TableSketch
	for i, keys := range [][]uint64{a, b} {
		tab, err := NewTable("t", keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sks[i], err = ts.SketchTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	est, err := EstimateJoinSize(sks[0].KeySketch(), sks[1].KeySketch())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// stringKeys hashes format(i) for i < n with KeyFromString into a key
// space: the key sets of the taxi/weather/stations dataset search.
func stringKeys(format string, lo, n int, keySpace uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = KeyFromString(fmt.Sprintf(format, lo+i)) % keySpace
	}
	return keys
}

// TestServedDartDisjointKeysJoinZero: tables with disjoint keys share no
// block, so in the served configuration their estimated join size is
// exactly 0 — at every key space, including 2⁶³ where L = 2⁵⁰ and every
// dart value is of order 10⁻¹⁵. Dart values rounded to multiples of 2⁻⁵³
// made such tables report joins of tens to hundreds of rows there.
func TestServedDartDisjointKeysJoinZero(t *testing.T) {
	span := func(lo, hi uint64) []uint64 {
		var keys []uint64
		for k := lo; k <= hi; k++ {
			keys = append(keys, k)
		}
		return keys
	}
	for _, keySpace := range []uint64{1 << 20, 1 << 40, DefaultKeySpace} {
		pairs := map[string][2][]uint64{
			"integer": {span(0, 2555), span(100000, 101393)},
			"string":  {stringKeys("2022-%03d", 0, 365, keySpace), stringKeys("station-%d", 0, 200, keySpace)},
		}
		for name, p := range pairs {
			if slices.ContainsFunc(p[0], func(k uint64) bool { return slices.Contains(p[1], k) }) {
				t.Fatalf("%s keys are not disjoint in key space %d", name, keySpace)
			}
			for _, seed := range []uint64{1, 2, 3, 7} {
				if est := servedJoinSize(t, seed, keySpace, p[0], p[1]); est != 0 {
					t.Errorf("%s keys, key space %d, seed %d: disjoint tables estimate a join of %v rows", name, keySpace, seed, est)
				}
			}
		}
	}
}

// recordOverlapLaw is the record process's law on the overlap of
// TestServedDartOverlapInsideRecordSpread: the mean and standard deviation
// of its estimates over sketch seeds 1001–1400, disjoint from the seeds the
// test draws. It was measured when the record process was still a
// construction Config could select; the process now lives only in
// internal/wmh's tests, and a table of 3650 keys takes it ~0.2 s to sketch.
var recordOverlapLaw = struct {
	n        int
	mean, sd float64
}{400, 363.15, 99.93}

// TestServedDartOverlapInsideRecordSpread: a year of daily string keys
// against ten years of them (a 365-of-3650 overlap) at the default key
// space. The served estimates of seeds 1–3 must each lie within four
// standard deviations of the record process's mean (recordOverlapLaw), and
// the mean over seeds 1–10 within four standard errors of it — the same
// law, not only no false collisions.
func TestServedDartOverlapInsideRecordSpread(t *testing.T) {
	year := stringKeys("2022-%03d", 0, 365, DefaultKeySpace)
	var decade []uint64
	for y := 2013; y <= 2022; y++ {
		decade = append(decade, stringKeys(fmt.Sprint(y)+"-%03d", 0, 365, DefaultKeySpace)...)
	}
	const seeds = 10
	var dart [seeds]float64
	for i := range seeds {
		dart[i] = servedJoinSize(t, uint64(i+1), DefaultKeySpace, year, decade)
	}
	dm, dsd := 0.0, 0.0
	for _, x := range dart {
		dm += x
	}
	dm /= seeds
	for _, x := range dart {
		dsd += (x - dm) * (x - dm)
	}
	dsd = math.Sqrt(dsd / (seeds - 1))
	law := recordOverlapLaw
	t.Logf("truth 365: dart %.0f (mean %.0f, sd %.0f), record law mean %.0f, sd %.0f", dart, dm, dsd, law.mean, law.sd)
	for i, est := range dart[:3] {
		if math.Abs(est-law.mean) > 4*law.sd {
			t.Errorf("seed %d: dart estimates %.0f joined rows, outside the record process's %.0f ± 4·%.0f", i+1, est, law.mean, law.sd)
		}
	}
	if se := math.Hypot(dsd/math.Sqrt(seeds), law.sd/math.Sqrt(float64(law.n))); math.Abs(dm-law.mean) > 4*se {
		t.Errorf("dart mean %.0f vs record mean %.0f: differ by more than 4 SE %.0f", dm, law.mean, 4*se)
	}
}

// TestSketchTablePathsAgree: the three table entry points are one bundle
// body with the builder drawn from the pool or held, so for every method
// they must marshal
// to identical bytes — with and without an explicit column subset — on a
// table whose vectors differ in support: a zero drops out of x_V, an
// underflowed square out of x_{V²} only.
func TestSketchTablePathsAgree(t *testing.T) {
	const rows = 150
	rng := hashing.NewSplitMix64(17)
	keys := make([]uint64, rows)
	a, b, c := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	for i := range keys {
		keys[i] = uint64(rows-i) * 7 // unsorted on purpose
		a[i], b[i], c[i] = rng.Norm(), float64(i%11)-5, rng.Norm()
	}
	a[3], c[5] = 0, 1e-200 // b already holds zeros and negatives
	tab, err := NewTable("paths", keys, map[string][]float64{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Method: MethodWMH, StorageWords: 100, Seed: 3, Quantize: true},
	}
	for _, m := range Methods() {
		cfgs = append(cfgs, Config{Method: m, StorageWords: 100, Seed: 3})
	}
	for _, cfg := range cfgs {
		ts, err := NewTableSketcher(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := ts.NewBuilder()
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range [][]string{nil, {"c", "a"}} {
			var want []byte
			for name, sketch := range map[string]func(*Table, ...string) (*TableSketch, error){
				"SketchTable": ts.SketchTable, "builder": tb.SketchTable, "SketchTableChunked": ts.SketchTableChunked,
			} {
				sk, err := sketch(tab, cols...)
				if err != nil {
					t.Fatalf("%+v %s cols=%v: %v", cfg, name, cols, err)
				}
				got, err := sk.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%+v cols=%v: %s marshals differently from the other entry points", cfg, cols, name)
				}
			}
		}
	}
}
