package ipsketch

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hashing"
	"repro/internal/kmv"
	"repro/internal/minhash"
	"repro/internal/psample"
	"repro/internal/sample"
	"repro/internal/wmh"
)

// columnarFamilies lists every family the columnar kernel packs.
var columnarFamilies = []struct {
	name string
	cfg  Config
}{
	{"MH", Config{Method: MethodMH, StorageWords: 300, Seed: 11}},
	{"WMH", Config{Method: MethodWMH, StorageWords: 300, Seed: 12}},
	{"KMV", Config{Method: MethodKMV, StorageWords: 300, Seed: 14}},
	{"PS", Config{Method: MethodPS, StorageWords: 300, Seed: 15}},
	{"TS", Config{Method: MethodTS, StorageWords: 300, Seed: 16}},
}

// buildColumnarFixture sketches a randomized catalog under cfg: nTables
// tables with 1–3 columns each, key sets ranging from heavy query overlap
// to fully disjoint, plus an all-zero column (an empty value sketch). The
// returned index has NOT had BuildColumnar called.
func buildColumnarFixture(t testing.TB, cfg Config, seed uint64, nTables int) (*TableSketch, *SketchIndex) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	const n = 200
	ts, err := NewTableSketcher(cfg, 1<<18)
	if err != nil {
		t.Fatal(err)
	}

	qKeys := make([]uint64, n)
	qVals := make([]float64, n)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = rng.Norm()
	}
	query, err := NewTable("query", qKeys, map[string][]float64{"v": qVals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(query)
	if err != nil {
		t.Fatal(err)
	}

	ix := NewSketchIndex()
	for i := 0; i < nTables; i++ {
		rows := 50 + rng.Intn(100)
		keys := make([]uint64, rows)
		for j := range keys {
			switch i % 4 {
			case 0: // heavy overlap with the query's 0..n-1 keys
				keys[j] = uint64(j)
			case 1: // partial overlap
				keys[j] = uint64(3*j + 1)
			case 2: // disjoint
				keys[j] = uint64(100000 + i*1000 + j)
			default: // even keys: half overlap
				keys[j] = uint64(2 * j)
			}
		}
		cols := map[string][]float64{}
		for c := 0; c <= i%3; c++ {
			vals := make([]float64, rows)
			for j := range vals {
				switch {
				case i%4 == 3 && c == 0:
					// all-zero column: the value sketches are empty
				case i%2 == 0 && int(keys[j]) < n:
					vals[j] = 0.8*qVals[keys[j]] + 0.2*rng.Norm()
				default:
					vals[j] = rng.Norm()
				}
			}
			cols[fmt.Sprintf("c%d", c)] = vals
		}
		// Names whose sort order differs from insertion order.
		name := fmt.Sprintf("%c%02d", 'a'+(i*7)%26, i)
		tab, err := NewTable(name, keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(sk); err != nil {
			t.Fatal(err)
		}
	}
	return qSk, ix
}

// buildTieFixture sketches a catalog built to tie: groups of tables share
// one key set each, so every table of a group has a bit-equal join-size
// estimate and — under RankByJoinSize — every column of every table of
// the group ties, which makes the k boundary cut through tables and tie
// groups. One group is disjoint from the query (size ≤ 0: NaN ratio
// statistics, score 0 under join_size), tables carry 1–3 columns, and a
// table named like the query sits in the index to be self-excluded. The
// returned index has NOT had BuildColumnar called.
func buildTieFixture(t testing.TB, cfg Config, seed uint64) (*TableSketch, *SketchIndex) {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	const n = 200
	ts, err := NewTableSketcher(cfg, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	sketch := func(name string, keys []uint64, cols map[string][]float64) *TableSketch {
		tab, err := NewTable(name, keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	qKeys := make([]uint64, n)
	qVals := make([]float64, n)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = rng.Norm()
	}
	qSk := sketch("query", qKeys, map[string][]float64{"v": qVals})

	groups := [][]uint64{make([]uint64, 120), make([]uint64, 100), make([]uint64, 60), make([]uint64, 80)}
	for j := range groups[0] {
		groups[0][j] = uint64(j) // 120 of the query's keys
	}
	for j := range groups[1] {
		groups[1][j] = uint64(2 * j) // 100 of them
	}
	for j := range groups[2] {
		groups[2][j] = uint64(3*j + 1) // 60 of them
	}
	for j := range groups[3] {
		groups[3][j] = uint64(50000 + j) // none: estimated size ≤ 0
	}
	ix := NewSketchIndex()
	for i := 0; i < 20; i++ {
		keys := groups[i%len(groups)]
		cols := map[string][]float64{}
		for c := 0; c <= i%3; c++ {
			vals := make([]float64, len(keys))
			for j := range vals {
				if int(keys[j]) < n && c == 0 {
					vals[j] = 0.1*float64(i)*qVals[keys[j]] + rng.Norm()
				} else {
					vals[j] = rng.Norm()
				}
			}
			cols[fmt.Sprintf("c%d", c)] = vals
		}
		// Names whose sort order differs from insertion order.
		name := fmt.Sprintf("%c%02d", 'a'+(i*11)%26, i)
		if i == 9 {
			name = "query" // present in the index: must be self-excluded
		}
		if err := ix.Add(sketch(name, keys, cols)); err != nil {
			t.Fatal(err)
		}
	}
	return qSk, ix
}

// tieMinJoins returns minJoinSize values around the largest tied join
// size of a ranking: none pruned, the tie value itself (kept — the filter
// is a strict <), and the next float above it (the whole tie group goes).
func tieMinJoins(full []SearchResult) []float64 {
	top := 0.0
	for _, r := range full {
		top = max(top, r.Stats.Size)
	}
	return []float64{0, top, math.Nextafter(top, math.Inf(1))}
}

// requireSameSearch compares two searches' results bit for bit (table,
// column, Float64bits of the score and of every Stats field).
func requireSameSearch(t *testing.T, label string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("%s: result %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestColumnarSearchEquivalence: for every packable family, the packed
// rank-then-fill search must be byte-identical to the decoded all-six
// path — same results, same tie order, same NaN statistics, same scan
// counters — across every RankBy, minJoinSize, and k shape (0, 1, odd,
// exact, beyond, unbounded), on a randomized corpus and on one built to
// tie.
func TestColumnarSearchEquivalence(t *testing.T) {
	for _, fam := range columnarFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			qSk, random := buildColumnarFixture(t, fam.cfg, 1000+fam.cfg.Seed, 18)
			qTie, tied := buildTieFixture(t, fam.cfg, 1500+fam.cfg.Seed)
			for _, fx := range []struct {
				name string
				q    *TableSketch
				ix   *SketchIndex
			}{{"random", qSk, random}, {"tied", qTie, tied}} {
				ix := fx.ix
				full, _, err := ix.Search(Query{Sketch: fx.q, Column: "v", RankBy: RankByJoinSize, K: -1})
				if err != nil {
					t.Fatal(err)
				}
				minJoins := []float64{0, 25}
				if fx.name == "tied" {
					minJoins = tieMinJoins(full)
					sizes := map[uint64]int{}
					for _, r := range full {
						sizes[math.Float64bits(r.Stats.Size)]++
					}
					if len(sizes) > 4 || len(full) < 30 {
						t.Fatalf("tie fixture does not tie: %d candidates over %d distinct sizes", len(full), len(sizes))
					}
				}
				n := len(full)
				for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
					for _, minJoin := range minJoins {
						ix.view = nil
						decoded, dStats, err := ix.Search(Query{Sketch: fx.q, Column: "v", RankBy: by, MinJoinSize: minJoin, K: -1})
						if err != nil {
							t.Fatal(err)
						}
						if dStats.Columnar != 0 || dStats.Fallback != dStats.Candidates {
							t.Fatalf("pre-build stats claim columnar scoring: %+v", dStats)
						}
						if packed := ix.BuildColumnar(); packed != ix.Len() {
							t.Fatalf("packed %d of %d entries", packed, ix.Len())
						}
						for _, k := range []int{0, 1, 7, n / 2, n, n + 7, -1} {
							label := fmt.Sprintf("%s by=%d minJoin=%v k=%d", fx.name, by, minJoin, k)
							got, cStats, err := ix.Search(Query{Sketch: fx.q, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
							if err != nil {
								t.Fatal(err)
							}
							if k != 0 {
								if cStats.Fallback != 0 || cStats.Columnar != cStats.Candidates {
									t.Fatalf("%s: post-build stats claim fallback scoring: %+v", label, cStats)
								}
								if cStats.Candidates != dStats.Candidates || cStats.Pruned != dStats.Pruned {
									t.Fatalf("%s: counters diverge: columnar %+v decoded %+v", label, cStats, dStats)
								}
							}
							want := decoded
							if k >= 0 && len(want) > k {
								want = want[:k]
							}
							requireSameSearch(t, label, got, want)
							for _, r := range got {
								if r.Table == fx.q.Name {
									t.Fatalf("%s: the query's own table was ranked", label)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestColumnarStrictIndexEquivalence: a strict index runs the packed scan
// under the once-per-search pin check; its rankings must match the lax
// decoded scan bit for bit.
func TestColumnarStrictIndexEquivalence(t *testing.T) {
	for _, fam := range columnarFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			qSk, lax := buildColumnarFixture(t, fam.cfg, 2000+fam.cfg.Seed, 12)
			strict := NewStrictSketchIndex()
			for _, e := range lax.entries {
				if err := strict.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			want, _, err := lax.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByAbsCorrelation, K: -1})
			if err != nil {
				t.Fatal(err)
			}
			strict.BuildColumnar()
			got, stats, err := strict.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByAbsCorrelation, K: -1})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Columnar == 0 {
				t.Fatal("strict search never hit the packed kernel")
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range got {
				if !resultsIdentical(got[i], want[i]) {
					t.Fatalf("result %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestColumnarViewAllOrNothing: a view covers every entry of its index.
// Tables without value columns are entries like any other — packed
// key-only, so packed table t is entry t — and every candidate of such an
// index scores through the kernel, bit-identically to the decoded scan.
func TestColumnarViewAllOrNothing(t *testing.T) {
	for _, fam := range columnarFamilies {
		t.Run(fam.name, func(t *testing.T) {
			qSk, fixture := buildColumnarFixture(t, fam.cfg, 7100, 9)
			ts, err := NewTableSketcher(fam.cfg, 1<<18)
			if err != nil {
				t.Fatal(err)
			}
			bare := func(name string) *TableSketch {
				tab, err := NewTable(name, []uint64{1, 2, 3, 5, 8}, nil)
				if err != nil {
					t.Fatal(err)
				}
				sk, err := ts.SketchTable(tab)
				if err != nil {
					t.Fatal(err)
				}
				return sk
			}
			// Key-only tables first, in the middle and last in scan order.
			ix := NewSketchIndex()
			add := func(e *TableSketch) {
				if err := ix.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			add(bare("bare-first"))
			for i, e := range fixture.entries {
				if i == 4 {
					add(bare("bare-mid"))
				}
				add(e)
			}
			add(bare("bare-last"))
			decoded := NewSketchIndex() // the same entries, never packed
			for _, e := range ix.entries {
				if err := decoded.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if got := ix.BuildColumnar(); got != ix.Len() {
				t.Fatalf("packed %d of %d entries", got, ix.Len())
			}
			for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
				for _, k := range []int{-1, 3} {
					label := fmt.Sprintf("by=%d k=%d", by, k)
					want, wantStats, err := decoded.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: k})
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: k})
					if err != nil {
						t.Fatal(err)
					}
					requireSameSearch(t, label, got, want)
					if stats.Candidates != wantStats.Candidates || stats.Columnar != stats.Candidates || stats.Fallback != 0 {
						t.Fatalf("%s: packed scan counters %+v, decoded scored %d", label, stats, wantStats.Candidates)
					}
				}
			}
		})
	}
}

// TestColumnarUnpackableFamily: an index of a linear method has nothing to
// pack — BuildColumnar reports zero, the scan runs decoded, and results
// are unchanged.
func TestColumnarUnpackableFamily(t *testing.T) {
	qSk, ix := buildColumnarFixture(t, Config{Method: MethodJL, StorageWords: 300, Seed: 21}, 3000, 8)
	want, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.BuildColumnar(); got != 0 {
		t.Fatalf("BuildColumnar packed %d entries of a linear method", got)
	}
	got, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columnar != 0 || stats.Fallback != stats.Candidates {
		t.Fatalf("linear scan claims columnar scoring: %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("result %d differs", i)
		}
	}
}

// TestColumnarViewInvalidation: Add stales the packed view (the pack
// indexes entry positions), and a rebuild restores packed scanning.
func TestColumnarViewInvalidation(t *testing.T) {
	qSk, ix := buildColumnarFixture(t, Config{Method: MethodWMH, StorageWords: 200, Seed: 31}, 4000, 8)
	want, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	ix.BuildColumnar()
	if _, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1}); err != nil || stats.Columnar == 0 {
		t.Fatalf("built view not used: stats=%+v err=%v", stats, err)
	}

	// Re-adding an entry replaces it in place and stales the view.
	if err := ix.Add(ix.entries[0]); err != nil {
		t.Fatal(err)
	}
	if ix.view != nil {
		t.Fatal("Add left a stale columnar view")
	}
	if _, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1}); err != nil || stats.Columnar != 0 {
		t.Fatalf("stale view used: stats=%+v err=%v", stats, err)
	}

	ix.BuildColumnar()
	got, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columnar == 0 {
		t.Fatal("rebuilt view not used")
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("result %d differs after rebuild", i)
		}
	}
}

// TestColumnarPackExactSize: a build sizes every array of each run once,
// at its final length — each of the run's three sample.Cols and its
// colOff end at their last element, so no Append reallocated — and packs
// the run's samples, in the same order, as appending its sketches one by
// one; the runs cover every entry. The
// fixture mixes tables with zero, one and two columns, an empty table
// (empty key, value and squared-value sketches) and an all-zero column.
func TestColumnarPackExactSize(t *testing.T) {
	rows := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	keys := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	ramp := rows(len(keys), func(i int) float64 { return float64(i) - 4.5 })
	tables := []struct {
		name string
		keys []uint64
		cols map[string][]float64
	}{
		{"a-bare", keys, nil},
		{"b-empty", nil, map[string][]float64{"v": nil}},
		{"c-one", keys, map[string][]float64{"v": ramp}},
		{"d-zero", keys, map[string][]float64{"v": ramp, "w": make([]float64, len(keys))}},
		{"e-two", keys[2:], map[string][]float64{"v": ramp[2:], "w": rows(len(keys)-2, func(i int) float64 { return float64(i * i) })}},
	}
	for _, fam := range columnarFamilies {
		t.Run(fam.name, func(t *testing.T) {
			ts, err := NewTableSketcher(fam.cfg, 1<<18)
			if err != nil {
				t.Fatal(err)
			}
			ix := NewSketchIndex()
			for _, tb := range tables {
				tab, err := NewTable(tb.name, tb.keys, tb.cols)
				if err != nil {
					t.Fatal(err)
				}
				sk, err := ts.SketchTable(tab)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Add(sk); err != nil {
					t.Fatal(err)
				}
			}
			if got := ix.BuildColumnar(); got != ix.Len() {
				t.Fatalf("packed %d of %d entries", got, ix.Len())
			}
			v := ix.view
			if n := v.start[len(v.runs)]; n != ix.Len() {
				t.Fatalf("runs cover %d of %d entries", n, ix.Len())
			}
			for i, r := range v.runs {
				entries := ix.entries[v.start[i]:v.start[i+1]]
				if c := r.colOff; cap(c) != len(c) || len(c) != len(entries)+1 {
					t.Errorf("run %d colOff: capacity %d, length %d for %d entries", i, cap(c), len(c), len(entries))
				}
				switch pk := r.pk.(type) {
				case *pack[*minhash.Sketch, uint64]:
					checkPackExact(t, pk, entries)
				case *pack[*wmh.Sketch, float64]:
					checkPackExact(t, pk, entries)
				case *pack[*kmv.Sketch, uint64]:
					checkPackExact(t, pk, entries)
				case *pack[*psample.Sketch, uint64]:
					checkPackExact(t, pk, entries)
				default:
					t.Fatalf("no check for pack type %T", pk)
				}
			}
		})
	}
}

// checkPackExact checks each of p's three sample.Cols against entries:
// every slice of it has capacity equal to its length, it holds one slot
// per sketch, and slot i is sketch i's sample and aux word.
func checkPackExact[S sampled[T], T sample.Tag](t *testing.T, p *pack[S, T], entries []*TableSketch) {
	t.Helper()
	var keys, vals, sqs []S
	for _, e := range entries {
		keys = append(keys, e.key.payload.(S))
		for i := range e.Columns() {
			vals = append(vals, e.val[i].payload.(S))
			sqs = append(sqs, e.sqVal[i].payload.(S))
		}
	}
	for _, pc := range []struct {
		name string
		cols *sample.Cols[T]
		src  []S
	}{{"keys", &p.keys, keys}, {"vals", &p.vals, vals}, {"sqs", &p.sqs, sqs}} {
		rv := reflect.ValueOf(pc.cols).Elem()
		for f := range rv.NumField() {
			if fv := rv.Field(f); fv.Cap() != fv.Len() {
				t.Errorf("%s.%s: capacity %d, length %d", pc.name, rv.Type().Field(f).Name, fv.Cap(), fv.Len())
			}
		}
		if n := rv.FieldByName("aux").Len(); n != len(pc.src) {
			t.Fatalf("%s: %d slots, want %d", pc.name, n, len(pc.src))
		}
		for i, s := range pc.src {
			tags, vals, aux := pc.cols.At(i)
			wantTags, wantVals, wantAux := s.Sample()
			if !slices.Equal(tags, wantTags) || !slices.Equal(vals, wantVals) || math.Float64bits(aux) != math.Float64bits(wantAux) {
				t.Errorf("%s slot %d: packed sample differs from the sketch's", pc.name, i)
			}
		}
	}
}
