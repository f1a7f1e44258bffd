package kmv

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

func mustSketch(t *testing.T, v vector.Sparse, p Params) *Sketch {
	t.Helper()
	s, err := New(v, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The estimators below are test oracles of the bottom-k sampling law that
// Estimate and JoinSizeEstimate divide by: the k-th smallest hash of the
// union, τ, gives (k−1)/τ ≈ |A∪B|, and one sketch's own k-th hash its
// support size. Both are exact when the supports were retained whole.

// distinctEstimate estimates the support size |A|: exact when the whole
// support was retained, otherwise the Beyer et al. estimator (k−1)/u_(k).
func distinctEstimate(s *Sketch) float64 {
	if s.SawAll() {
		return float64(len(s.hashes))
	}
	k := len(s.hashes)
	return float64(k-1) / hashing.UnitFromBits(s.hashes[k-1])
}

// unionEstimate estimates |A∪B|: exact when both sketches retained their
// supports, otherwise (k−1)/τ on the merged bottom-k.
func unionEstimate(a, b *Sketch) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	if a.SawAll() && b.SawAll() {
		return float64(unionCount(a.hashes, b.hashes))
	}
	_, _, tau := threshold(a.params.K, a.hashes, a.vals, a.SawAll(), b.hashes, b.vals, b.SawAll())
	return float64(a.params.K-1) / tau
}

// unionCount counts the distinct values of two ascending hash lists.
func unionCount(x, y []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + (len(x) - i) + (len(y) - j)
}

func rangeVec(lo, hi uint64, val func(uint64) float64) vector.Sparse {
	m := map[uint64]float64{}
	for i := lo; i < hi; i++ {
		m[i] = val(i)
	}
	v, err := vector.FromMap(100000, m)
	if err != nil {
		panic(err)
	}
	return v
}

func ones(uint64) float64 { return 1 }

func TestParamsValidate(t *testing.T) {
	if (Params{K: 0}).Validate() == nil {
		t.Fatal("K=0 accepted")
	}
	if (Params{K: 16}).Validate() != nil {
		t.Fatal("valid params rejected")
	}
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	if _, err := New(v, Params{K: -1}); err == nil {
		t.Fatal("New accepted invalid params")
	}
}

func TestSketchKeepsKSmallest(t *testing.T) {
	v := rangeVec(0, 100, ones)
	s := mustSketch(t, v, Params{K: 10, Seed: 1})
	if len(s.hashes) != 10 {
		t.Fatalf("retained %d hashes, want 10", len(s.hashes))
	}
	for i := 1; i < len(s.hashes); i++ {
		if s.hashes[i] <= s.hashes[i-1] {
			t.Fatal("hashes not strictly ascending")
		}
	}
	if s.SawAll() {
		t.Fatal("SawAll true with |A| > K")
	}
}

func TestSawAllSmallSupport(t *testing.T) {
	v := rangeVec(0, 5, ones)
	s := mustSketch(t, v, Params{K: 10, Seed: 1})
	if !s.SawAll() || len(s.hashes) != 5 {
		t.Fatalf("small support not fully retained: %d hashes", len(s.hashes))
	}
	if distinctEstimate(s) != 5 {
		t.Fatalf("exact distinct estimate %v, want 5", distinctEstimate(s))
	}
}

func TestDistinctEstimateConverges(t *testing.T) {
	v := rangeVec(0, 5000, ones)
	s := mustSketch(t, v, Params{K: 512, Seed: 3})
	got := distinctEstimate(s)
	if math.Abs(got-5000)/5000 > 0.15 {
		t.Fatalf("distinct estimate %v, want ~5000", got)
	}
}

func TestExactWhenBothSawAll(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	a := rangeVec(0, 30, func(uint64) float64 { return rng.Norm() })
	b := rangeVec(15, 45, func(uint64) float64 { return rng.Norm() })
	p := Params{K: 64, Seed: 7}
	sa, sb := mustSketch(t, a, p), mustSketch(t, b, p)
	got, err := Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	want := vector.Dot(a, b)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("exact-case estimate %v, want %v", got, want)
	}
	js, err := JoinSizeEstimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if js != 15 {
		t.Fatalf("exact join size %v, want 15", js)
	}
	if u := unionEstimate(sa, sb); u != 45 {
		t.Fatalf("exact union %v, want 45", u)
	}
}

func TestEstimateConverges(t *testing.T) {
	rng := hashing.NewSplitMix64(9)
	a := rangeVec(0, 600, func(uint64) float64 { return 1 + rng.Float64() })
	b := rangeVec(300, 900, func(uint64) float64 { return 1 + rng.Float64() })
	truth := vector.Dot(a, b)
	const trials = 40
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := Params{K: 256, Seed: uint64(trial)}
		est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean estimate %v, want ~%v", mean, truth)
	}
}

func TestJoinSizeEstimateConverges(t *testing.T) {
	a := rangeVec(0, 1000, ones)
	b := rangeVec(600, 1600, ones)
	const trials = 40
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := Params{K: 256, Seed: uint64(trial + 100)}
		js, err := JoinSizeEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		sum += js
	}
	mean := sum / trials
	if math.Abs(mean-400)/400 > 0.12 {
		t.Fatalf("mean join size %v, want ~400", mean)
	}
}

func TestUnionEstimateConverges(t *testing.T) {
	a := rangeVec(0, 1000, ones)
	b := rangeVec(500, 1500, ones)
	p := Params{K: 512, Seed: 13}
	u := unionEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if math.Abs(u-1500)/1500 > 0.15 {
		t.Fatalf("union estimate %v, want ~1500", u)
	}
}

func TestUnionEstimateOneEmpty(t *testing.T) {
	empty := vector.MustNew(100000, nil, nil)
	b := rangeVec(0, 2000, ones)
	p := Params{K: 256, Seed: 17}
	u := unionEstimate(mustSketch(t, empty, p), mustSketch(t, b, p))
	if math.Abs(u-2000)/2000 > 0.2 {
		t.Fatalf("union with empty side %v, want ~2000", u)
	}
}

func TestEmptyEstimatesZero(t *testing.T) {
	empty := vector.MustNew(100000, nil, nil)
	v := rangeVec(0, 10, ones)
	p := Params{K: 8, Seed: 1}
	se, sv := mustSketch(t, empty, p), mustSketch(t, v, p)
	if !se.IsEmpty() {
		t.Fatal("empty sketch not flagged")
	}
	for _, pair := range [][2]*Sketch{{se, sv}, {sv, se}, {se, se}} {
		got, err := Estimate(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("estimate with empty = %v", got)
		}
		js, err := JoinSizeEstimate(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if js != 0 {
			t.Fatalf("join size with empty = %v", js)
		}
	}
	if u := unionEstimate(se, se); u != 0 {
		t.Fatal("union of empties should be 0")
	}
}

func TestDisjointEstimateZero(t *testing.T) {
	a := rangeVec(0, 500, ones)
	b := rangeVec(10000, 10500, ones)
	p := Params{K: 128, Seed: 19}
	got, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("disjoint estimate %v, want 0", got)
	}
}

func TestIncompatibleSketchesRejected(t *testing.T) {
	v := rangeVec(0, 10, ones)
	w := vector.MustNew(99, []uint64{1}, []float64{1})
	a := mustSketch(t, v, Params{K: 8, Seed: 1})
	cases := map[string]*Sketch{
		"seed": mustSketch(t, v, Params{K: 8, Seed: 2}),
		"k":    mustSketch(t, v, Params{K: 16, Seed: 1}),
		"dim":  mustSketch(t, w, Params{K: 8, Seed: 1}),
	}
	for name, other := range cases {
		if _, err := Estimate(a, other); err == nil {
			t.Errorf("%s mismatch not rejected by Estimate", name)
		}
		if _, err := JoinSizeEstimate(a, other); err == nil {
			t.Errorf("%s mismatch not rejected by JoinSizeEstimate", name)
		}
	}
}

func TestDeterministicAndSeedSensitive(t *testing.T) {
	v := rangeVec(0, 100, ones)
	a1 := mustSketch(t, v, Params{K: 16, Seed: 5})
	a2 := mustSketch(t, v, Params{K: 16, Seed: 5})
	for i := range a1.hashes {
		if a1.hashes[i] != a2.hashes[i] {
			t.Fatal("sketch not deterministic")
		}
	}
	b := mustSketch(t, v, Params{K: 16, Seed: 6})
	same := 0
	for i := range a1.hashes {
		if a1.hashes[i] == b.hashes[i] {
			same++
		}
	}
	if same == len(a1.hashes) {
		t.Fatal("different seeds produced identical sketches")
	}
}

func TestStorageWordsAndAccessors(t *testing.T) {
	v := rangeVec(0, 10, ones)
	p := Params{K: 100, Seed: 1}
	s := mustSketch(t, v, p)
	if s.StorageWords() != 150 {
		t.Fatalf("StorageWords = %v, want 150", s.StorageWords())
	}
	if s.Params() != p || s.Dim() != 100000 {
		t.Fatal("accessors wrong")
	}
}

// TestWithoutReplacementProperty: KMV retains distinct indices only — the
// same index never appears twice in a sketch.
func TestWithoutReplacementProperty(t *testing.T) {
	v := rangeVec(0, 200, ones)
	s := mustSketch(t, v, Params{K: 50, Seed: 23})
	seen := map[uint64]bool{}
	for _, h := range s.hashes {
		if seen[h] {
			t.Fatal("duplicate hash retained")
		}
		seen[h] = true
	}
}
