package ipsketch

import (
	"bytes"
	"math"
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
	if _, err := EstimateTableJoinSize(ska, skb); err == nil {
		t.Fatal("key-space mismatch accepted by join size")
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

// TestSketchTablePathsAgree: the three table entry points are one bundle
// body under three engines (SketchAll, a held builder, and SketchAll again
// under the serving layer's name), so for every method they must marshal
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
		{Method: MethodWMH, StorageWords: 100, Seed: 3, Dart: true},
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
