package linear

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

func randomSparse(rng *hashing.SplitMix64, n uint64, nnz int) vector.Sparse {
	m := make(map[uint64]float64, nnz)
	for len(m) < nnz {
		v := rng.Norm()
		if v == 0 {
			continue
		}
		m[rng.Uint64n(n)] = v
	}
	s, err := vector.FromMap(n, m)
	if err != nil {
		panic(err)
	}
	return s
}

func overlappingPair(rng *hashing.SplitMix64, n uint64, nnz int, overlap float64) (vector.Sparse, vector.Sparse) {
	a := randomSparse(rng, n, nnz)
	bm := map[uint64]float64{}
	a.Range(func(i uint64, v float64) bool {
		if rng.Float64() < overlap {
			bm[i] = rng.Norm()
		}
		return true
	})
	for len(bm) < nnz {
		bm[rng.Uint64n(n)] = rng.Norm()
	}
	b, err := vector.FromMap(n, bm)
	if err != nil {
		panic(err)
	}
	return a, b
}

// --- JL ---

func TestJLParamsValidate(t *testing.T) {
	if (JLParams{M: 0}).Validate() == nil {
		t.Fatal("M=0 accepted")
	}
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	if _, err := NewJL(v, JLParams{M: -1}); err == nil {
		t.Fatal("NewJL accepted invalid params")
	}
}

func TestJLDeterministic(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9}, []float64{1, -2, 3})
	p := JLParams{M: 32, Seed: 7}
	a, _ := NewJL(v, p)
	b, _ := NewJL(v, p)
	for r := range a.rows {
		if a.rows[r] != b.rows[r] {
			t.Fatal("JL sketch not deterministic")
		}
	}
}

// fromDense builds a sparse vector from a dense slice.
func fromDense(d []float64) (vector.Sparse, error) {
	var idx []uint64
	var val []float64
	for i, v := range d {
		if v != 0 {
			idx = append(idx, uint64(i))
			val = append(val, v)
		}
	}
	return vector.New(uint64(len(d)), idx, val)
}

func TestFromDenseRoundTrip(t *testing.T) {
	d := []float64{0, 1.5, 0, 0, -2, 0, 3}
	s, err := fromDense(d)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Dense()
	if len(got) != len(d) {
		t.Fatalf("dense length %d, want %d", len(got), len(d))
	}
	for i := range d {
		if got[i] != d[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, got[i], d[i])
		}
	}
}

func TestJLLinearity(t *testing.T) {
	// S(a + c·b) = S(a) + c·S(b): the defining property of linear sketches.
	rng := hashing.NewSplitMix64(3)
	a := randomSparse(rng, 500, 40)
	b := randomSparse(rng, 500, 40)
	p := JLParams{M: 64, Seed: 9}
	sa, _ := NewJL(a, p)
	sb, _ := NewJL(b, p)
	// a + 2b, computed densely.
	da, db := a.Dense(), b.Dense()
	sum := make([]float64, len(da))
	for i := range da {
		sum[i] = da[i] + 2*db[i]
	}
	vc, _ := fromDense(sum)
	sc, _ := NewJL(vc, p)
	for r := range sc.rows {
		want := sa.rows[r] + 2*sb.rows[r]
		if math.Abs(sc.rows[r]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("linearity violated at row %d: %v vs %v", r, sc.rows[r], want)
		}
	}
}

func TestJLSelfEstimateIsNormSquared(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	v := randomSparse(rng, 500, 60)
	truth := v.SquaredNorm()
	const trials = 50
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		s, err := NewJL(v, JLParams{M: 256, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateJL(s, s)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.05 {
		t.Fatalf("mean self-estimate %v, want ~%v", mean, truth)
	}
}

func TestJLEstimateUnbiased(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	a, b := overlappingPair(rng, 1000, 100, 0.5)
	truth := vector.Dot(a, b)
	scale := a.Norm() * b.Norm()
	const trials = 60
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := JLParams{M: 256, Seed: uint64(trial)}
		sa, _ := NewJL(a, p)
		sb, _ := NewJL(b, p)
		est, err := EstimateJL(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/scale > 0.03 {
		t.Fatalf("mean estimate %v, want ~%v (scale %v)", mean, truth, scale)
	}
}

func TestJLFact1ErrorScale(t *testing.T) {
	rng := hashing.NewSplitMix64(9)
	a, b := overlappingPair(rng, 1000, 100, 0.3)
	truth := vector.Dot(a, b)
	scale := vector.LinearSketchBound(a, b)
	const m = 512
	failures := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := JLParams{M: m, Seed: uint64(trial + 99)}
		sa, _ := NewJL(a, p)
		sb, _ := NewJL(b, p)
		est, _ := EstimateJL(sa, sb)
		if math.Abs(est-truth) > 8*scale/math.Sqrt(m) {
			failures++
		}
	}
	if failures > trials/10 {
		t.Fatalf("%d/%d trials exceeded 8× the Fact 1 error scale", failures, trials)
	}
}

func TestJLIncompatibleRejected(t *testing.T) {
	v := vector.MustNew(100, []uint64{1}, []float64{1})
	w := vector.MustNew(200, []uint64{1}, []float64{1})
	a, _ := NewJL(v, JLParams{M: 16, Seed: 1})
	b, _ := NewJL(v, JLParams{M: 16, Seed: 2})
	c, _ := NewJL(v, JLParams{M: 32, Seed: 1})
	d, _ := NewJL(w, JLParams{M: 16, Seed: 1})
	for name, other := range map[string]*JLSketch{"seed": b, "m": c, "dim": d} {
		if _, err := EstimateJL(a, other); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
	}
}

func TestJLEmptyVector(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	v := vector.MustNew(100, []uint64{1}, []float64{5})
	p := JLParams{M: 16, Seed: 1}
	se, _ := NewJL(empty, p)
	sv, _ := NewJL(v, p)
	got, err := EstimateJL(se, sv)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty × v = %v, want 0 (S(0) = 0)", got)
	}
}

func TestJLStorageWords(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	s, _ := NewJL(v, JLParams{M: 100, Seed: 1})
	if s.StorageWords() != 100 {
		t.Fatalf("StorageWords = %v, want 100", s.StorageWords())
	}
	if s.Params().M != 100 || s.Dim() != 10 {
		t.Fatal("accessors wrong")
	}
}

// --- CountSketch ---

func TestCSParamsValidate(t *testing.T) {
	if (CSParams{Buckets: 0, Reps: 5}).Validate() == nil {
		t.Fatal("Buckets=0 accepted")
	}
	if (CSParams{Buckets: 8, Reps: 0}).Validate() == nil {
		t.Fatal("Reps=0 accepted")
	}
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	if _, err := NewCountSketch(v, CSParams{}); err == nil {
		t.Fatal("NewCountSketch accepted invalid params")
	}
}

func TestCSDeterministic(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9}, []float64{1, -2, 3})
	p := CSParams{Buckets: 16, Reps: 5, Seed: 7}
	a, _ := NewCountSketch(v, p)
	b, _ := NewCountSketch(v, p)
	for r := range a.rows {
		for k := range a.rows[r] {
			if a.rows[r][k] != b.rows[r][k] {
				t.Fatal("CountSketch not deterministic")
			}
		}
	}
}

func TestCSMassPreservedPerRow(t *testing.T) {
	// Each repetition distributes every entry to exactly one bucket, so the
	// sum of |bucket| values can never exceed Σ|v| and the signed sum per
	// row equals Σ s(j)·v[j]; check the simpler invariant: Σ_buckets row =
	// Σ_j sign_r(j)·v_j, which for a single-entry vector is ±v.
	v := vector.MustNew(100, []uint64{42}, []float64{3})
	s, _ := NewCountSketch(v, CSParams{Buckets: 8, Reps: 3, Seed: 11})
	for r := range s.rows {
		sum, nonZero := 0.0, 0
		for _, x := range s.rows[r] {
			sum += x
			if x != 0 {
				nonZero++
			}
		}
		if nonZero != 1 || math.Abs(sum) != 3 {
			t.Fatalf("rep %d: nonZero=%d sum=%v", r, nonZero, sum)
		}
	}
}

func TestCSEstimateUnbiased(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	a, b := overlappingPair(rng, 1000, 100, 0.5)
	truth := vector.Dot(a, b)
	scale := a.Norm() * b.Norm()
	const trials = 60
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := CSParams{Buckets: 128, Reps: DefaultReps, Seed: uint64(trial)}
		sa, _ := NewCountSketch(a, p)
		sb, _ := NewCountSketch(b, p)
		est, err := EstimateCountSketch(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	// The median of 5 is only approximately unbiased; allow a wider margin.
	if math.Abs(mean-truth)/scale > 0.06 {
		t.Fatalf("mean estimate %v, want ~%v (scale %v)", mean, truth, scale)
	}
}

func TestCSMedianRobustness(t *testing.T) {
	// With an even repetition count the median averages the middle two.
	v := vector.MustNew(100, []uint64{1, 2}, []float64{1, 2})
	p := CSParams{Buckets: 32, Reps: 4, Seed: 3}
	sa, _ := NewCountSketch(v, p)
	est, err := EstimateCountSketch(sa, sa)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("self-estimate %v should be positive", est)
	}
}

func TestCSIncompatibleRejected(t *testing.T) {
	v := vector.MustNew(100, []uint64{1}, []float64{1})
	w := vector.MustNew(200, []uint64{1}, []float64{1})
	base := CSParams{Buckets: 16, Reps: 5, Seed: 1}
	a, _ := NewCountSketch(v, base)
	cases := map[string]CSParams{
		"seed":    {Buckets: 16, Reps: 5, Seed: 2},
		"buckets": {Buckets: 32, Reps: 5, Seed: 1},
		"reps":    {Buckets: 16, Reps: 3, Seed: 1},
	}
	for name, p := range cases {
		other, _ := NewCountSketch(v, p)
		if _, err := EstimateCountSketch(a, other); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
	}
	d, _ := NewCountSketch(w, base)
	if _, err := EstimateCountSketch(a, d); err == nil {
		t.Error("dim mismatch not rejected")
	}
}

func TestCSStorageWords(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	s, _ := NewCountSketch(v, CSParams{Buckets: 20, Reps: 5, Seed: 1})
	if s.StorageWords() != 100 {
		t.Fatalf("StorageWords = %v, want 100", s.StorageWords())
	}
}

// --- SimHash ---

func TestSimHashParamsValidate(t *testing.T) {
	if (SimHashParams{Bits: 0}).Validate() == nil {
		t.Fatal("Bits=0 accepted")
	}
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	if _, err := NewSimHash(v, SimHashParams{}); err == nil {
		t.Fatal("NewSimHash accepted invalid params")
	}
}

func TestSimHashSelfAgreement(t *testing.T) {
	rng := hashing.NewSplitMix64(17)
	v := randomSparse(rng, 500, 50)
	p := SimHashParams{Bits: 256, Seed: 5}
	a, _ := NewSimHash(v, p)
	b, _ := NewSimHash(v, p)
	est, err := EstimateSimHash(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := v.SquaredNorm() // cos(0)·‖v‖² exactly
	if math.Abs(est-want) > 1e-9*want {
		t.Fatalf("self estimate %v, want %v", est, want)
	}
}

func TestSimHashOppositeVectors(t *testing.T) {
	rng := hashing.NewSplitMix64(19)
	v := randomSparse(rng, 500, 50)
	neg := v.Scale(-1)
	p := SimHashParams{Bits: 256, Seed: 7}
	a, _ := NewSimHash(v, p)
	b, _ := NewSimHash(neg, p)
	est, err := EstimateSimHash(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := -v.SquaredNorm() // cos(π)·‖v‖²
	if math.Abs(est-want) > 1e-9*math.Abs(want) {
		t.Fatalf("opposite estimate %v, want %v", est, want)
	}
}

func TestSimHashCosineConverges(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	a, b := overlappingPair(rng, 1000, 100, 0.7)
	truth := vector.Dot(a, b)
	scale := a.Norm() * b.Norm()
	const trials = 30
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := SimHashParams{Bits: 1024, Seed: uint64(trial)}
		sa, _ := NewSimHash(a, p)
		sb, _ := NewSimHash(b, p)
		est, err := EstimateSimHash(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/scale > 0.08 {
		t.Fatalf("mean estimate %v, want ~%v (scale %v)", mean, truth, scale)
	}
}

func TestSimHashEmpty(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	v := vector.MustNew(100, []uint64{1}, []float64{5})
	p := SimHashParams{Bits: 64, Seed: 1}
	se, _ := NewSimHash(empty, p)
	sv, _ := NewSimHash(v, p)
	got, err := EstimateSimHash(se, sv)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty estimate %v, want 0", got)
	}
}

func TestSimHashIncompatibleRejected(t *testing.T) {
	v := vector.MustNew(100, []uint64{1}, []float64{1})
	w := vector.MustNew(200, []uint64{1}, []float64{1})
	a, _ := NewSimHash(v, SimHashParams{Bits: 64, Seed: 1})
	b, _ := NewSimHash(v, SimHashParams{Bits: 64, Seed: 2})
	c, _ := NewSimHash(v, SimHashParams{Bits: 128, Seed: 1})
	d, _ := NewSimHash(w, SimHashParams{Bits: 64, Seed: 1})
	for name, other := range map[string]*SimHashSketch{"seed": b, "bits": c, "dim": d} {
		if _, err := EstimateSimHash(a, other); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
	}
}

func TestSimHashStorage(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	s, _ := NewSimHash(v, SimHashParams{Bits: 256, Seed: 1})
	if s.StorageWords() != 5 { // 4 packed words + 1 norm
		t.Fatalf("StorageWords = %v, want 5", s.StorageWords())
	}
	if s.Norm() != 1 {
		t.Fatalf("Norm = %v", s.Norm())
	}
	odd, _ := NewSimHash(v, SimHashParams{Bits: 65, Seed: 1})
	if odd.StorageWords() != 3 { // 2 packed words + 1 norm
		t.Fatalf("odd StorageWords = %v, want 3", odd.StorageWords())
	}
}
