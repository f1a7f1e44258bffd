package tables

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// paperTables returns T_A and T_B exactly as printed in Figure 2 of the
// paper.
func paperTables() (*Table, *Table) {
	ta := MustNew("T_A",
		[]uint64{1, 3, 4, 5, 6, 7, 8, 9, 11},
		map[string][]float64{"V": {6, 2, 6, 1, 4, 2, 2, 8, 3}})
	tb := MustNew("T_B",
		[]uint64{2, 4, 5, 8, 10, 11, 12, 15, 16},
		map[string][]float64{"V": {1, 5, 1, 2, 4, 2.5, 6, 6, 3.7}})
	return ta, tb
}

// TestPaperFigure2 reproduces every number printed in Figure 2.
func TestPaperFigure2(t *testing.T) {
	ta, tb := paperTables()
	j, err := Join(ta, tb, "V", "V")
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 4 {
		t.Fatalf("SIZE = %d, want 4", j.Size())
	}
	wantKeys := []uint64{4, 5, 8, 11}
	for i, k := range wantKeys {
		if j.Keys[i] != k {
			t.Fatalf("join keys = %v, want %v", j.Keys, wantKeys)
		}
	}
	if j.SumA() != 12.0 {
		t.Fatalf("SUM(V_A⋈) = %v, want 12.0", j.SumA())
	}
	if j.SumB() != 10.5 {
		t.Fatalf("SUM(V_B⋈) = %v, want 10.5", j.SumB())
	}
	if j.MeanA() != 3.0 {
		t.Fatalf("MEAN(V_A⋈) = %v, want 3.0", j.MeanA())
	}
}

// TestPaperFigure3Vectorization reproduces the vector representations of
// Figure 3 and the inner-product reductions built on them.
func TestPaperFigure3Vectorization(t *testing.T) {
	ta, tb := paperTables()
	const keySpace = 32

	x1KA, err := ta.KeyIndicator(keySpace)
	if err != nil {
		t.Fatal(err)
	}
	x1KB, err := tb.KeyIndicator(keySpace)
	if err != nil {
		t.Fatal(err)
	}
	xVA, err := ta.ValueVector(keySpace, "V")
	if err != nil {
		t.Fatal(err)
	}
	xVB, err := tb.ValueVector(keySpace, "V")
	if err != nil {
		t.Fatal(err)
	}

	// Spot-check entries against the Figure 3 matrix.
	if xVA.At(1) != 6.0 || xVA.At(11) != 3.0 || xVA.At(2) != 0 {
		t.Fatal("x_VA entries wrong")
	}
	if xVB.At(16) != 3.7 || xVB.At(4) != 5.0 || xVB.At(1) != 0 {
		t.Fatal("x_VB entries wrong")
	}
	if x1KA.NNZ() != 9 || x1KB.NNZ() != 9 {
		t.Fatal("key indicators have wrong support size")
	}

	// SIZE = ⟨x_1[K_A], x_1[K_B]⟩ = 4.
	if got := vector.Dot(x1KA, x1KB); got != 4 {
		t.Fatalf("⟨x1KA, x1KB⟩ = %v, want 4", got)
	}
	// SUM(V_A⋈) = ⟨x_VA, x_1[K_B]⟩ = 12.
	if got := vector.Dot(xVA, x1KB); got != 12 {
		t.Fatalf("⟨xVA, x1KB⟩ = %v, want 12", got)
	}
	// MEAN(V_A⋈) = 12/4 = 3.
	if got := vector.Dot(xVA, x1KB) / vector.Dot(x1KA, x1KB); got != 3 {
		t.Fatalf("mean reduction = %v, want 3", got)
	}
	// Post-join inner product ⟨x_VA, x_VB⟩ = 6·5 + 1·1 + 2·2 + 3·2.5.
	j, _ := Join(ta, tb, "V", "V")
	if got := vector.Dot(xVA, xVB); got != j.InnerProduct() {
		t.Fatalf("⟨xVA, xVB⟩ = %v, want %v", got, j.InnerProduct())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", []uint64{1, 2}, map[string][]float64{"V": {1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := New("t", []uint64{1}, map[string][]float64{"V": {math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := New("t", []uint64{1}, map[string][]float64{"V": {math.Inf(1)}}); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestNewCopiesInputs(t *testing.T) {
	keys := []uint64{1, 2}
	vals := []float64{3, 4}
	tab := MustNew("t", keys, map[string][]float64{"V": vals})
	keys[0] = 99
	vals[0] = 99
	if tab.Keys()[0] != 1 {
		t.Fatal("keys aliased")
	}
	c, _ := tab.Column("V")
	if c[0] != 3 {
		t.Fatal("columns aliased")
	}
}

func TestColumnNamesSortedAndLookup(t *testing.T) {
	tab := MustNew("t", []uint64{1}, map[string][]float64{"b": {1}, "a": {2}, "c": {3}})
	names := tab.ColumnNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("ColumnNames = %v", names)
	}
	if _, ok := tab.Column("missing"); ok {
		t.Fatal("missing column reported present")
	}
	if tab.Name() != "t" || tab.NumRows() != 1 {
		t.Fatal("accessors wrong")
	}
}

func TestHasDuplicateKeys(t *testing.T) {
	uniq := MustNew("u", []uint64{1, 2, 3}, nil)
	dup := MustNew("d", []uint64{1, 2, 1}, nil)
	if uniq.HasDuplicateKeys() {
		t.Fatal("unique keys flagged as duplicate")
	}
	if !dup.HasDuplicateKeys() {
		t.Fatal("duplicate keys not flagged")
	}
}

func TestAggregate(t *testing.T) {
	tab := MustNew("t",
		[]uint64{5, 3, 5, 3, 5},
		map[string][]float64{"V": {1, 10, 2, 20, 3}})
	cases := []struct {
		agg Agg
		at3 float64
		at5 float64
	}{
		{AggSum, 30, 6},
		{AggMean, 15, 2},
		{AggCount, 2, 3},
		{AggMin, 10, 1},
		{AggMax, 20, 3},
		{AggFirst, 10, 1},
	}
	for _, c := range cases {
		got, err := tab.Aggregate(c.agg)
		if err != nil {
			t.Fatalf("%v: %v", c.agg, err)
		}
		if got.HasDuplicateKeys() {
			t.Fatalf("%v: aggregate left duplicates", c.agg)
		}
		keys := got.Keys()
		if len(keys) != 2 || keys[0] != 3 || keys[1] != 5 {
			t.Fatalf("%v: keys = %v", c.agg, keys)
		}
		col, _ := got.Column("V")
		if col[0] != c.at3 || col[1] != c.at5 {
			t.Fatalf("%v: col = %v, want [%v %v]", c.agg, col, c.at3, c.at5)
		}
	}
}

func TestAggregateUnknownRejected(t *testing.T) {
	tab := MustNew("t", []uint64{1}, map[string][]float64{"V": {1}})
	if _, err := tab.Aggregate(Agg(99)); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
	if Agg(99).String() == "" {
		t.Fatal("unknown Agg should still format")
	}
}

// TestAggTextRoundTrip: every aggregation parses back from its name in any
// case — the service once matched lower case only, the command line any
// case, and the shared parser keeps the union — and unknown names fail.
func TestAggTextRoundTrip(t *testing.T) {
	for a := AggSum; a <= AggFirst; a++ {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{string(text), strings.ToUpper(string(text))} {
			var got Agg
			if err := got.UnmarshalText([]byte(s)); err != nil || got != a {
				t.Errorf("UnmarshalText(%q) = %v, %v; want %v", s, got, err, a)
			}
		}
	}
	var a Agg
	if err := a.UnmarshalText([]byte("median")); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
}

func TestJoinErrors(t *testing.T) {
	a := MustNew("a", []uint64{1}, map[string][]float64{"V": {1}})
	b := MustNew("b", []uint64{1}, map[string][]float64{"V": {1}})
	dup := MustNew("d", []uint64{1, 1}, map[string][]float64{"V": {1, 2}})
	if _, err := Join(a, b, "missing", "V"); err == nil {
		t.Fatal("missing colA accepted")
	}
	if _, err := Join(a, b, "V", "missing"); err == nil {
		t.Fatal("missing colB accepted")
	}
	if _, err := Join(dup, b, "V", "V"); err != ErrDuplicateKeys {
		t.Fatal("duplicate keys in A not rejected")
	}
	if _, err := Join(a, dup, "V", "V"); err != ErrDuplicateKeys {
		t.Fatal("duplicate keys in B not rejected")
	}
}

func TestJoinEmptyIntersection(t *testing.T) {
	a := MustNew("a", []uint64{1, 2}, map[string][]float64{"V": {1, 2}})
	b := MustNew("b", []uint64{3, 4}, map[string][]float64{"V": {3, 4}})
	j, err := Join(a, b, "V", "V")
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 || j.SumA() != 0 || j.InnerProduct() != 0 {
		t.Fatal("empty join should yield zero size/sums")
	}
	if !math.IsNaN(j.MeanA()) {
		t.Fatal("empty join mean should be NaN")
	}
}

func TestJoinStatistics(t *testing.T) {
	a := MustNew("a", []uint64{1, 2, 3, 4}, map[string][]float64{"V": {1, 2, 3, 4}})
	b := MustNew("b", []uint64{2, 3, 4, 5}, map[string][]float64{"V": {4, 6, 8, 10}})
	j, err := Join(a, b, "V", "V")
	if err != nil {
		t.Fatal(err)
	}
	// Joined rows: keys 2,3,4 → VA = [2,3,4], VB = [4,6,8].
	if j.Size() != 3 {
		t.Fatalf("size %d", j.Size())
	}
	if j.MeanA() != 3 || j.MeanB() != 6 {
		t.Fatalf("means %v %v", j.MeanA(), j.MeanB())
	}
	if math.Abs(j.VarA()-2.0/3.0) > 1e-12 {
		t.Fatalf("VarA = %v", j.VarA())
	}
	if math.Abs(j.Covariance()-4.0/3.0) > 1e-12 {
		t.Fatalf("Cov = %v", j.Covariance())
	}
	if math.Abs(j.Correlation()-1) > 1e-12 {
		t.Fatalf("Corr = %v, want 1 (VB = 2·VA)", j.Correlation())
	}
	if j.InnerProduct() != 2*4+3*6+4*8 {
		t.Fatalf("InnerProduct = %v", j.InnerProduct())
	}
}

func TestVectorizationErrors(t *testing.T) {
	dup := MustNew("d", []uint64{1, 1}, map[string][]float64{"V": {1, 2}})
	if _, err := dup.KeyIndicator(100); err != ErrDuplicateKeys {
		t.Fatal("duplicate keys not rejected by KeyIndicator")
	}
	if _, err := dup.ValueVector(100, "V"); err != ErrDuplicateKeys {
		t.Fatal("duplicate keys not rejected by ValueVector")
	}
	big := MustNew("b", []uint64{1000}, map[string][]float64{"V": {1}})
	if _, err := big.KeyIndicator(100); err == nil {
		t.Fatal("key outside key space accepted")
	}
	if _, err := big.ValueVector(100, "V"); err == nil {
		t.Fatal("key outside key space accepted by ValueVector")
	}
	ok := MustNew("ok", []uint64{1}, map[string][]float64{"V": {1}})
	if _, err := ok.ValueVector(100, "missing"); err == nil {
		t.Fatal("missing column accepted")
	}
	// A column whose squared norms overflow is rejected by name: 1e100
	// overflows Σv⁴ (‖x_{V²}‖²), 1e160 already Σv², and 1e77 overflows Σv⁴
	// only once three of them are summed.
	for _, col := range [][]float64{{1, 1e100}, {1e160, 1}, {1e77, 1e77, 1e77}} {
		keys := []uint64{1, 2, 3}[:len(col)]
		huge := MustNew("h", keys, map[string][]float64{"ok": make([]float64, len(col)), "huge": col})
		if _, _, _, err := huge.Vectors(100, []string{"ok", "huge"}); err == nil || !strings.Contains(err.Error(), `"huge"`) {
			t.Fatalf("values %v: err = %v, want an error naming column huge", col, err)
		}
	}
	if _, _, _, err := MustNew("f", []uint64{1, 2}, map[string][]float64{"V": {1e76, -1e76}}).Vectors(100, []string{"V"}); err != nil {
		t.Fatalf("finite squared norms rejected: %v", err)
	}
}

// TestVectorsMatchesSingleVectorMethods: one Vectors pass yields exactly
// the vectors the three single-vector methods yield, on a table with
// unsorted keys, a zero, a negative value and a value whose square
// underflows; and it rejects what they reject.
func TestVectorsMatchesSingleVectorMethods(t *testing.T) {
	tab := MustNew("t", []uint64{9, 2, 7, 4}, map[string][]float64{
		"a": {1.5, 0, -3, 2},
		"b": {1e-200, 5, 6, -7},
		"c": {1, 1, 1, 1},
	})
	cols := []string{"b", "a"}
	key, vals, sqs, err := tab.Vectors(100, cols)
	if err != nil {
		t.Fatal(err)
	}
	if ki, err := tab.KeyIndicator(100); err != nil || !key.Equal(ki) || key.NNZ() != 4 {
		t.Fatalf("key indicator %v vs %v (%v)", key, ki, err)
	}
	if len(vals) != len(cols) || len(sqs) != len(cols) {
		t.Fatalf("%d value and %d squared vectors for %d columns", len(vals), len(sqs), len(cols))
	}
	for i, c := range cols {
		if v, err := tab.ValueVector(100, c); err != nil || !vals[i].Equal(v) {
			t.Fatalf("x_V of %q: %v vs %v (%v)", c, vals[i], v, err)
		}
		if sq, err := tab.SquaredValueVector(100, c); err != nil || !sqs[i].Equal(sq) {
			t.Fatalf("x_V² of %q: %v vs %v (%v)", c, sqs[i], sq, err)
		}
	}
	if vals[1].NNZ() != 3 || vals[1].At(7) != -3 || sqs[1].At(7) != 9 {
		t.Fatalf("column a: x_V %v, x_V² %v", vals[1], sqs[1])
	}
	if vals[0].At(9) != 1e-200 || sqs[0].NNZ() != 3 {
		t.Fatalf("column b: the underflowed square should leave x_V² only: %v, %v", vals[0], sqs[0])
	}

	if _, _, _, err := tab.Vectors(100, []string{"a", "missing"}); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, _, _, err := tab.Vectors(9, nil); err == nil {
		t.Fatal("key outside key space accepted")
	}
	dup := MustNew("d", []uint64{3, 1, 3}, map[string][]float64{"V": {1, 2, 3}})
	if _, _, _, err := dup.Vectors(100, nil); err != ErrDuplicateKeys {
		t.Fatalf("duplicate keys: err = %v, want ErrDuplicateKeys itself", err)
	}
	empty := MustNew("e", nil, map[string][]float64{"V": {}})
	key, vals, sqs, err = empty.Vectors(100, []string{"V"})
	if err != nil || key.Dim() != 100 || !key.IsEmpty() || !vals[0].IsEmpty() || !sqs[0].IsEmpty() {
		t.Fatalf("empty table: %v %v %v (%v)", key, vals, sqs, err)
	}
}

// TestSortKeyRowsMatchesSortFunc: from two rows to thousands, the radix
// sort puts keys in the order slices.SortFunc does — on random keys over
// the full and the default key range, small integer keys (whose constant
// high bytes are skipped), sorted, reverse-sorted and all-equal keys, and
// keys with duplicates — with every row kept once beside its own key.
// Tables with a duplicate key are still rejected.
func TestSortKeyRowsMatchesSortFunc(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	for _, n := range []int{2, 16, 255, 256, 1000, 5000} {
		random, small, sorted, reversed, equal, dups := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range random {
			random[i] = rng.Uint64()
			small[i] = rng.Uint64() % (4 * uint64(n))
			sorted[i] = uint64(i) * 0x9E3779B97F
			reversed[i] = uint64(n-i) << 20
			equal[i] = 42
			dups[i] = rng.Uint64() % DefaultKeySpace
		}
		for i := 0; i < n; i += 7 {
			dups[i] = dups[n-1-i]
		}
		for name, keys := range map[string][]uint64{"random": random, "small": small, "sorted": sorted, "reversed": reversed, "equal": equal, "duplicates": dups} {
			got := make([]keyRow, n)
			for row, k := range keys {
				got[row] = keyRow{k, row}
			}
			want := slices.Clone(got)
			sortKeyRows(got)
			slices.SortFunc(want, func(a, b keyRow) int { return cmp.Compare(a.key, b.key) })
			seen := make([]bool, n)
			for i := range got {
				if got[i].key != want[i].key {
					t.Fatalf("%s, %d rows: key %d at position %d, SortFunc has %d", name, n, got[i].key, i, want[i].key)
				}
				if r := got[i].row; seen[r] || keys[r] != got[i].key {
					t.Fatalf("%s, %d rows: row %d misplaced at position %d", name, n, r, i)
				}
				seen[got[i].row] = true
			}
		}
		tab := MustNew("dups", dups, map[string][]float64{"V": make([]float64, n)})
		if _, _, _, err := tab.Vectors(DefaultKeySpace, []string{"V"}); err != ErrDuplicateKeys {
			t.Fatalf("%d rows with duplicate keys: err = %v, want ErrDuplicateKeys", n, err)
		}
	}
}

func TestSquaredValueVector(t *testing.T) {
	tab := MustNew("t", []uint64{1, 2, 3}, map[string][]float64{"V": {2, -3, 0}})
	sq, err := tab.SquaredValueVector(100, "V")
	if err != nil {
		t.Fatal(err)
	}
	if sq.At(1) != 4 || sq.At(2) != 9 {
		t.Fatalf("squared vector wrong: %v", sq)
	}
	if sq.At(3) != 0 || sq.NNZ() != 2 {
		t.Fatal("zero entry should vanish")
	}
}

// TestVarianceReduction: post-join variance from the three inner products
// the paper's framework provides: Σv², Σv, and join size.
func TestVarianceReduction(t *testing.T) {
	a := MustNew("a", []uint64{1, 2, 3, 4, 9}, map[string][]float64{"V": {1, 2, 3, 4, 77}})
	b := MustNew("b", []uint64{1, 2, 3, 4, 8}, map[string][]float64{"V": {5, 5, 5, 5, 5}})
	const keySpace = 32
	xVA, _ := a.ValueVector(keySpace, "V")
	xVA2, _ := a.SquaredValueVector(keySpace, "V")
	x1KA, _ := a.KeyIndicator(keySpace)
	x1KB, _ := b.KeyIndicator(keySpace)

	n := vector.Dot(x1KA, x1KB)
	sumV := vector.Dot(xVA, x1KB)
	sumV2 := vector.Dot(xVA2, x1KB)
	variance := sumV2/n - (sumV/n)*(sumV/n)

	j, _ := Join(a, b, "V", "V")
	if math.Abs(variance-j.VarA()) > 1e-9 {
		t.Fatalf("variance reduction %v, want %v", variance, j.VarA())
	}
}

func mustKeyIndicator(t *Table, space uint64) vector.Sparse {
	v, err := t.KeyIndicator(space)
	if err != nil {
		panic(err)
	}
	return v
}

func TestKeyFromStringDeterministicAndSpread(t *testing.T) {
	if KeyFromString("2022-01-15") != KeyFromString("2022-01-15") {
		t.Fatal("KeyFromString not deterministic")
	}
	seen := map[uint64]string{}
	days := []string{"2022-01-01", "2022-01-02", "2022-01-03", "a", "b", "ab", ""}
	for _, s := range days {
		k := KeyFromString(s)
		if k >= DefaultKeySpace {
			t.Fatalf("key %d outside key space", k)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("collision between %q and %q", prev, s)
		}
		seen[k] = s
	}
}
