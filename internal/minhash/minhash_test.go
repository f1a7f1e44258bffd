package minhash

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

// The estimators below are test oracles of the sampling laws Estimate
// rests on: Fact 3's collision rate and Lemma 1's union estimate, on one
// sketch (the support size) or two (the union).

// jaccardEstimate returns the fraction of colliding samples, an unbiased
// estimate of |A∩B| / |A∪B| (Fact 3, claim 1).
func jaccardEstimate(a, b *Sketch) float64 {
	if a.empty || b.empty {
		return 0
	}
	matches := 0
	for i, h := range a.hashes {
		if h == b.hashes[i] {
			matches++
		}
	}
	return float64(matches) / float64(len(a.hashes))
}

// unionEstimate returns the Lemma 1 estimator Ũ ≈ |A∪B|. An empty side
// contributes no minima, so the union is the other side's own estimate.
func unionEstimate(a, b *Sketch) float64 {
	switch {
	case a.empty:
		return distinctEstimate(b)
	case b.empty:
		return distinctEstimate(a)
	}
	sumMin, _ := collide(a.hashes, a.vals, b.hashes, b.vals)
	return float64(a.params.M)/sumMin - 1
}

// distinctEstimate returns the Lemma 1 estimator applied to a single
// sketch: an estimate of the vector's support size |A|.
func distinctEstimate(s *Sketch) float64 {
	if s.empty {
		return 0
	}
	sumMin, _ := collide(s.hashes, s.vals, s.hashes, s.vals)
	return float64(s.params.M)/sumMin - 1
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{M: 0}).Validate(); err == nil {
		t.Fatal("M=0 accepted")
	}
	if err := (Params{M: -5}).Validate(); err == nil {
		t.Fatal("M<0 accepted")
	}
	if err := (Params{M: 10}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	if _, err := New(v, Params{M: 0}); err == nil {
		t.Fatal("New accepted invalid params")
	}
}

func TestSketchDeterministic(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9, 40}, []float64{1, -2, 3, 0.5})
	p := Params{M: 64, Seed: 7}
	a := mustSketch(t, v, p)
	b := mustSketch(t, v, p)
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] || a.vals[i] != b.vals[i] {
			t.Fatalf("sketches differ at sample %d", i)
		}
	}
}

func TestSketchSeedsDiffer(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9, 40}, []float64{1, -2, 3, 0.5})
	a := mustSketch(t, v, Params{M: 64, Seed: 1})
	b := mustSketch(t, v, Params{M: 64, Seed: 2})
	same := 0
	for i := range a.hashes {
		if a.hashes[i] == b.hashes[i] {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("different seeds agree on %d/64 samples", same)
	}
}

func TestIdenticalVectorsAlwaysCollide(t *testing.T) {
	v := vector.MustNew(1000, []uint64{3, 77, 500}, []float64{2, 4, -1})
	p := Params{M: 32, Seed: 3}
	a := mustSketch(t, v, p)
	b := mustSketch(t, v, p)
	if j := jaccardEstimate(a, b); j != 1 {
		t.Fatalf("identical vectors Jaccard estimate %v, want 1", j)
	}
}

func TestDisjointVectorsNeverCollide(t *testing.T) {
	a := vector.MustNew(1000, []uint64{1, 2, 3}, []float64{1, 1, 1})
	b := vector.MustNew(1000, []uint64{500, 600, 700}, []float64{1, 1, 1})
	p := Params{M: 256, Seed: 5}
	sa, sb := mustSketch(t, a, p), mustSketch(t, b, p)
	if j := jaccardEstimate(sa, sb); j != 0 {
		t.Fatalf("disjoint vectors Jaccard estimate %v, want 0", j)
	}
	est, err := Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("disjoint estimate %v, want 0", est)
	}
}

func TestEmptyVectorEstimatesZero(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	v := vector.MustNew(100, []uint64{1, 2}, []float64{5, 5})
	p := Params{M: 16, Seed: 1}
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
			t.Fatalf("estimate with empty sketch = %v, want 0", got)
		}
	}
}

func TestIncompatibleSketchesRejected(t *testing.T) {
	v := vector.MustNew(100, []uint64{1}, []float64{1})
	w := vector.MustNew(200, []uint64{1}, []float64{1})
	a := mustSketch(t, v, Params{M: 16, Seed: 1})
	b := mustSketch(t, v, Params{M: 16, Seed: 2})
	c := mustSketch(t, v, Params{M: 32, Seed: 1})
	d := mustSketch(t, w, Params{M: 16, Seed: 1})
	for name, other := range map[string]*Sketch{"seed": b, "m": c, "dim": d} {
		if _, err := Estimate(a, other); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
	}
}

func TestJaccardEstimateConverges(t *testing.T) {
	// Supports: A = {0..59}, B = {30..89}; |A∩B| = 30, |A∪B| = 90.
	mk := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = 1
		}
		v, _ := vector.FromMap(1000, m)
		return v
	}
	a, b := mk(0, 60), mk(30, 90)
	want := 30.0 / 90.0
	p := Params{M: 4096, Seed: 11}
	j := jaccardEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if math.Abs(j-want) > 0.03 {
		t.Fatalf("Jaccard estimate %v, want %v", j, want)
	}
}

func TestUnionEstimateConverges(t *testing.T) {
	mk := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = 1
		}
		v, _ := vector.FromMap(10000, m)
		return v
	}
	a, b := mk(0, 200), mk(100, 400)
	p := Params{M: 4096, Seed: 13}
	u := unionEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if math.Abs(u-400)/400 > 0.1 {
		t.Fatalf("union estimate %v, want ~400", u)
	}
}

func TestUnionEstimateWithOneEmptySide(t *testing.T) {
	mk := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = 1
		}
		v, _ := vector.FromMap(10000, m)
		return v
	}
	a := mk(0, 300)
	empty := vector.MustNew(10000, nil, nil)
	p := Params{M: 4096, Seed: 15}
	u := unionEstimate(mustSketch(t, a, p), mustSketch(t, empty, p))
	if math.Abs(u-300)/300 > 0.1 {
		t.Fatalf("union estimate with empty side %v, want ~300", u)
	}
	if both := unionEstimate(mustSketch(t, empty, p), mustSketch(t, empty, p)); both != 0 {
		t.Fatalf("union of empties %v, want 0", both)
	}
}

func TestDistinctEstimate(t *testing.T) {
	m := map[uint64]float64{}
	for i := uint64(0); i < 500; i++ {
		m[i*13] = 1
	}
	v, _ := vector.FromMap(100000, m)
	s := mustSketch(t, v, Params{M: 4096, Seed: 17})
	got := distinctEstimate(s)
	if math.Abs(got-500)/500 > 0.1 {
		t.Fatalf("distinct estimate %v, want ~500", got)
	}
	empty := mustSketch(t, vector.MustNew(10, nil, nil), Params{M: 16, Seed: 1})
	if distinctEstimate(empty) != 0 {
		t.Fatal("empty distinct estimate should be 0")
	}
}

// TestEstimateUnbiasedBinary: on binary vectors the estimator should
// converge to the exact intersection size.
func TestEstimateUnbiasedBinary(t *testing.T) {
	mk := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = 1
		}
		v, _ := vector.FromMap(10000, m)
		return v
	}
	a, b := mk(0, 120), mk(80, 200)
	truth := vector.Dot(a, b) // 40
	const trials = 60
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := Params{M: 512, Seed: uint64(trial)}
		est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.08 {
		t.Fatalf("mean estimate %v over %d trials, want ~%v", mean, trials, truth)
	}
}

// TestEstimateWithinTheorem4Bound: empirical error should respect the
// c²·sqrt(max(|A|,|B|)·|A∩B|)/sqrt(m) scaling with a comfortable constant.
func TestEstimateWithinTheorem4Bound(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	mkRandom := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = rng.Float64()*2 - 1 // entries in [−1, 1], c = 1
		}
		v, _ := vector.FromMap(10000, m)
		return v
	}
	a, b := mkRandom(0, 400), mkRandom(200, 600)
	truth := vector.Dot(a, b)
	bound := vector.MHBound(a, b)
	const m = 1024
	failures := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := Params{M: m, Seed: uint64(100 + trial)}
		est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-truth) > 8*bound/math.Sqrt(m) {
			failures++
		}
	}
	if failures > trials/10 {
		t.Fatalf("%d/%d trials exceeded 8× the Theorem 4 error scale", failures, trials)
	}
}

func TestStorageWords(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	s := mustSketch(t, v, Params{M: 100, Seed: 1})
	if got := s.StorageWords(); got != 150 {
		t.Fatalf("StorageWords = %v, want 150 (paper accounting: 1.5/sample)", got)
	}
}

func TestAccessors(t *testing.T) {
	v := vector.MustNew(42, []uint64{1}, []float64{1})
	p := Params{M: 8, Seed: 9}
	s := mustSketch(t, v, p)
	if s.Params() != p {
		t.Fatal("Params accessor wrong")
	}
	if s.Dim() != 42 {
		t.Fatal("Dim accessor wrong")
	}
}

// TestMatchedValuesUniformOverIntersection checks Fact 3 claim 2: when
// hashes collide, the sampled index is uniform over A∩B. We give each
// intersection index a distinct value and check the sampling frequencies.
func TestMatchedValuesUniformOverIntersection(t *testing.T) {
	// Intersection = {0,1,2,3,4}; a also has {100..149}, b has {200..249}.
	ma := map[uint64]float64{}
	mb := map[uint64]float64{}
	for i := uint64(0); i < 5; i++ {
		ma[i] = float64(i + 1) // distinct values 1..5 identify the index
		mb[i] = 1
	}
	for i := uint64(100); i < 150; i++ {
		ma[i] = 99
	}
	for i := uint64(200); i < 250; i++ {
		mb[i] = 99
	}
	va, _ := vector.FromMap(1000, ma)
	vb, _ := vector.FromMap(1000, mb)

	counts := map[float64]int{}
	total := 0
	for trial := 0; trial < 40; trial++ {
		p := Params{M: 256, Seed: uint64(trial)}
		sa, sb := mustSketch(t, va, p), mustSketch(t, vb, p)
		for i := range sa.hashes {
			if sa.hashes[i] == sb.hashes[i] {
				counts[sa.vals[i]]++
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no collisions observed")
	}
	for v := 1.0; v <= 5; v++ {
		frac := float64(counts[v]) / float64(total)
		if math.Abs(frac-0.2) > 0.05 {
			t.Errorf("intersection index with value %v sampled with frequency %.3f, want ~0.2", v, frac)
		}
	}
	if counts[99] != 0 {
		t.Error("collision sampled an index outside the intersection")
	}
}
