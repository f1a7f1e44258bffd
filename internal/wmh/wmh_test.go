package wmh

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
// rests on: Fact 5's collision rate and Algorithm 5's union estimate.

// weightedJaccardEstimate returns the fraction of colliding samples, an
// unbiased estimate of the weighted Jaccard similarity
// J̄ = Σmin(ã²,b̃²)/Σmax(ã²,b̃²) of the rounded normalized vectors (Fact 5
// claim 1).
func weightedJaccardEstimate(a, b *Sketch) float64 {
	if a.empty || b.empty {
		return 0
	}
	_, _, matches := collide(a.hashes, a.vals, b.hashes, b.vals)
	return float64(matches) / float64(len(a.hashes))
}

// weightedUnionEstimate returns M̃, the Algorithm 5 estimate of
// Σ_j max(ã[j]², b̃[j]²) ∈ [1, 2].
func weightedUnionEstimate(a, b *Sketch) float64 {
	if a.empty || b.empty {
		return 0
	}
	sumMin, _, _ := collide(a.hashes, a.vals, b.hashes, b.vals)
	return fmUnion(len(a.hashes), a.l, sumMin)
}

func TestParamsValidate(t *testing.T) {
	if (Params{M: 0}).Validate() == nil {
		t.Fatal("M=0 accepted")
	}
	if (Params{M: 4, L: MaxL + 1}).Validate() == nil {
		t.Fatal("huge L accepted")
	}
	if (Params{M: 4}).Validate() != nil {
		t.Fatal("valid params rejected")
	}
}

func TestSketchDeterministic(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9}, []float64{1, -2, 3})
	p := Params{M: 64, Seed: 7, L: 1 << 16}
	a, b := mustSketch(t, v, p), mustSketch(t, v, p)
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] || a.vals[i] != b.vals[i] {
			t.Fatalf("sketches differ at sample %d", i)
		}
	}
}

func TestIncompatibleSketchesRejected(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 2}, []float64{1, 2})
	w := vector.MustNew(200, []uint64{1, 2}, []float64{1, 2})
	base := Params{M: 16, Seed: 1, L: 1 << 16}
	a := mustSketch(t, v, base)
	cases := map[string]*Sketch{
		"seed": mustSketch(t, v, Params{M: 16, Seed: 2, L: 1 << 16}),
		"m":    mustSketch(t, v, Params{M: 32, Seed: 1, L: 1 << 16}),
		"l":    mustSketch(t, v, Params{M: 16, Seed: 1, L: 1 << 17}),
		"dim":  mustSketch(t, w, base),
	}
	for name, other := range cases {
		if _, err := Estimate(a, other); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
	}
}

func TestEmptyVectorEstimatesZero(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	v := vector.MustNew(100, []uint64{1, 2}, []float64{5, 5})
	p := Params{M: 16, Seed: 1, L: 1 << 14}
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

// TestIdenticalVectorsUnitNormIdentity: with a == b every sample matches
// with ratio exactly 1, so the UnitNormIdentity estimator returns exactly
// ‖a‖² with zero variance.
func TestIdenticalVectorsUnitNormIdentity(t *testing.T) {
	v := vector.MustNew(1000, []uint64{3, 77, 500, 800}, []float64{2, 4, -1, 25})
	p := Params{M: 64, Seed: 3, L: 1 << 20}
	a, b := mustSketch(t, v, p), mustSketch(t, v, p)
	got, err := EstimateWithOptions(a, b, Options{Union: UnitNormIdentity})
	if err != nil {
		t.Fatal(err)
	}
	want := v.SquaredNorm()
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("self estimate %v, want exactly %v", got, want)
	}
}

func TestIdenticalVectorsFMUnion(t *testing.T) {
	v := vector.MustNew(1000, []uint64{3, 77, 500, 800}, []float64{2, 4, -1, 25})
	p := Params{M: 1024, Seed: 5, L: 1 << 20}
	a, b := mustSketch(t, v, p), mustSketch(t, v, p)
	got, err := Estimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := v.SquaredNorm()
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("self estimate %v, want ~%v (FM union noise only)", got, want)
	}
}

func TestDisjointVectorsEstimateZero(t *testing.T) {
	a := vector.MustNew(1000, []uint64{1, 2, 3}, []float64{1, 5, 1})
	b := vector.MustNew(1000, []uint64{500, 600}, []float64{2, 2})
	p := Params{M: 256, Seed: 7, L: 1 << 18}
	got, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("disjoint estimate %v, want 0", got)
	}
}

// TestEstimateUnbiased: the mean estimate over independent seeds converges
// to the true inner product, including with outliers and negative values.
func TestEstimateUnbiased(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	a := randomSparse(rng, 500, 80, true)
	b := randomSparse(rng, 500, 80, true)
	// Force meaningful overlap: copy some of a's support into b.
	bm := map[uint64]float64{}
	b.Range(func(i uint64, v float64) bool { bm[i] = v; return true })
	cnt := 0
	a.Range(func(i uint64, v float64) bool {
		if cnt%2 == 0 {
			bm[i] = v * (0.5 + rng.Float64())
		}
		cnt++
		return true
	})
	b, _ = vector.FromMap(500, bm)

	truth := vector.Dot(a, b)
	scale := a.Norm() * b.Norm()
	const trials = 60
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		p := Params{M: 512, Seed: uint64(trial), L: 1 << 20}
		est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-truth)/scale > 0.02 {
		t.Fatalf("mean estimate %v over %d trials, want ~%v (scale %v)", mean, trials, truth, scale)
	}
}

// TestTheorem2ErrorScale: the error should track
// max(‖a_I‖‖b‖, ‖a‖‖b_I‖)/√m rather than ‖a‖‖b‖/√m for low-overlap pairs.
func TestTheorem2ErrorScale(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	// Two vectors with 200 non-zeros each, only 10 shared.
	am := map[uint64]float64{}
	bm := map[uint64]float64{}
	for i := uint64(0); i < 10; i++ {
		am[i] = rng.Norm()
		bm[i] = rng.Norm()
	}
	for i := uint64(100); i < 290; i++ {
		am[i] = rng.Norm()
	}
	for i := uint64(1000); i < 1190; i++ {
		bm[i] = rng.Norm()
	}
	a, _ := vector.FromMap(10000, am)
	b, _ := vector.FromMap(10000, bm)

	truth := vector.Dot(a, b)
	bound := vector.WMHBound(a, b)
	linBound := vector.LinearSketchBound(a, b)
	if bound > 0.5*linBound {
		t.Fatalf("test setup: WMH bound %v not much smaller than linear %v", bound, linBound)
	}
	const m = 1024
	failures := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := Params{M: m, Seed: uint64(trial + 1000), L: 1 << 22}
		est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-truth) > 8*bound/math.Sqrt(m) {
			failures++
		}
	}
	if failures > trials/10 {
		t.Fatalf("%d/%d trials exceeded 8× the Theorem 2 error scale", failures, trials)
	}
}

// TestHeavyEntrySampledReliably reproduces the paper's Section 4 motivating
// example: when one shared coordinate dominates the inner product, WMH must
// capture it (unweighted MinHash would sample it with probability 1/|A∩B|).
func TestHeavyEntrySampledReliably(t *testing.T) {
	am := map[uint64]float64{0: 100}
	bm := map[uint64]float64{0: 100}
	rng := hashing.NewSplitMix64(17)
	for i := uint64(1); i <= 200; i++ {
		am[i] = rng.Norm() * 0.1
		bm[i] = rng.Norm() * 0.1
	}
	a, _ := vector.FromMap(1000, am)
	b, _ := vector.FromMap(1000, bm)
	truth := vector.Dot(a, b) // ≈ 10000

	p := Params{M: 256, Seed: 19, L: 1 << 20}
	est, err := Estimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth)/truth > 0.2 {
		t.Fatalf("heavy-entry estimate %v, want ~%v", est, truth)
	}
}

// exactWeightedJaccard returns Σ min(a[i]², b[i]²) / Σ max(a[i]², b[i]²),
// the quantity J̄ of the paper's Fact 5 (applied to the raw entries), or 0
// when both vectors are empty.
func exactWeightedJaccard(a, b vector.Sparse) float64 {
	minSum, maxSum := 0.0, 0.0
	a.Range(func(i uint64, v float64) bool {
		w := b.At(i)
		minSum += math.Min(v*v, w*w)
		maxSum += math.Max(v*v, w*w)
		return true
	})
	b.Range(func(i uint64, w float64) bool {
		if a.At(i) == 0 {
			maxSum += w * w
		}
		return true
	})
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

func TestWeightedJaccard(t *testing.T) {
	a := vector.MustNew(10, []uint64{1, 2}, []float64{2, 1})  // squares: 4, 1
	b := vector.MustNew(10, []uint64{2, 3}, []float64{3, -1}) // squares: 9, 1
	// min sum = min(1,9)=1; max sum = 4 + 9 + 1 = 14
	if got := exactWeightedJaccard(a, b); math.Abs(got-1.0/14.0) > 1e-12 {
		t.Fatalf("exactWeightedJaccard = %v, want %v", got, 1.0/14.0)
	}
	if exactWeightedJaccard(a, a) != 1 {
		t.Fatal("exactWeightedJaccard(a,a) should be 1")
	}
	empty := vector.MustNew(10, nil, nil)
	if exactWeightedJaccard(empty, empty) != 0 {
		t.Fatal("exactWeightedJaccard of empties should be 0")
	}
}

func TestWeightedJaccardRange(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	for trial := 0; trial < 300; trial++ {
		a := randomSparse(rng, 200, 40, false)
		b := randomSparse(rng, 200, 40, false)
		j := exactWeightedJaccard(a, b)
		if j < 0 || j > 1 {
			t.Fatalf("exactWeightedJaccard out of [0,1]: %v", j)
		}
	}
}

// TestWeightedJaccardEstimateConverges: collision rate ≈ weighted Jaccard
// of the rounded normalized vectors (Fact 5 claim 1). The rounded target is
// computed exactly via RoundedVector.
func TestWeightedJaccardEstimateConverges(t *testing.T) {
	rng := hashing.NewSplitMix64(23)
	a := randomSparse(rng, 300, 50, true)
	bm := map[uint64]float64{}
	a.Range(func(i uint64, v float64) bool {
		if rng.Float64() < 0.5 {
			bm[i] = v * (0.5 + rng.Float64())
		}
		return true
	})
	for len(bm) < 60 {
		bm[rng.Uint64n(300)] = rng.Norm()
	}
	b, _ := vector.FromMap(300, bm)

	const l = 1 << 20
	want := exactWeightedJaccard(RoundedVector(a, l), RoundedVector(b, l))
	p := Params{M: 4096, Seed: 29, L: l}
	got := weightedJaccardEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("weighted Jaccard estimate %v, want %v", got, want)
	}
}

// TestWeightedUnionEstimateConverges: M̃ ≈ Σ max(ã², b̃²) ∈ [1, 2].
func TestWeightedUnionEstimateConverges(t *testing.T) {
	rng := hashing.NewSplitMix64(31)
	a := randomSparse(rng, 300, 50, false)
	b := randomSparse(rng, 300, 50, false)
	const l = 1 << 20
	ra, rb := RoundedVector(a, l), RoundedVector(b, l)
	// Σ max = 2 − Σ min over unit vectors.
	minSum := 0.0
	ra.Range(func(i uint64, v float64) bool {
		w := rb.At(i)
		minSum += math.Min(v*v, w*w)
		return true
	})
	want := 2 - minSum

	p := Params{M: 8192, Seed: 37, L: l}
	got := weightedUnionEstimate(mustSketch(t, a, p), mustSketch(t, b, p))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("weighted union estimate %v, want ~%v", got, want)
	}
}

// TestFastAndNaiveAgreeStatistically cross-validates the record-process
// oracle (newRecord) against literal slot hashing on a small L.
func TestFastAndNaiveAgreeStatistically(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	a := randomSparse(rng, 200, 30, false)
	bm := map[uint64]float64{}
	a.Range(func(i uint64, v float64) bool {
		if rng.Float64() < 0.6 {
			bm[i] = v + 0.2*rng.Norm()
		}
		return true
	})
	for len(bm) < 40 {
		bm[rng.Uint64n(200)] = rng.Norm()
	}
	b, _ := vector.FromMap(200, bm)
	truth := vector.Dot(a, b)
	scale := a.Norm() * b.Norm()

	const trials = 40
	var sumFast, sumNaive float64
	for trial := 0; trial < trials; trial++ {
		p := Params{M: 256, Seed: uint64(trial), L: 1 << 10}
		fa, fb := newRecord(a, p), newRecord(b, p)
		na := buildSampleMajor(a, p, variantNaive)
		nb := buildSampleMajor(b, p, variantNaive)
		ef, err := Estimate(fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		en, err := Estimate(na, nb)
		if err != nil {
			t.Fatal(err)
		}
		sumFast += ef
		sumNaive += en
	}
	meanFast := sumFast / trials
	meanNaive := sumNaive / trials
	if math.Abs(meanFast-truth)/scale > 0.05 {
		t.Fatalf("fast mean %v far from truth %v", meanFast, truth)
	}
	if math.Abs(meanNaive-truth)/scale > 0.05 {
		t.Fatalf("naive mean %v far from truth %v", meanNaive, truth)
	}
	if math.Abs(meanFast-meanNaive)/scale > 0.05 {
		t.Fatalf("fast (%v) and naive (%v) disagree", meanFast, meanNaive)
	}
}

func TestUnknownUnionEstimatorRejected(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	p := Params{M: 4, Seed: 1, L: 1 << 12}
	a, b := mustSketch(t, v, p), mustSketch(t, v, p)
	if _, err := EstimateWithOptions(a, b, Options{Union: UnionEstimator(99)}); err == nil {
		t.Fatal("unknown union estimator accepted")
	}
}

func TestStorageWordsAndAccessors(t *testing.T) {
	v := vector.MustNew(42, []uint64{1}, []float64{2})
	p := Params{M: 100, Seed: 9, L: 1 << 14}
	s := mustSketch(t, v, p)
	if got := s.StorageWords(); got != 151 {
		t.Fatalf("StorageWords = %v, want 151", got)
	}
	if s.Params() != p || s.Dim() != 42 || s.L() != 1<<14 {
		t.Fatal("accessors wrong")
	}
	if s.Norm() != 2 {
		t.Fatalf("Norm = %v, want 2", s.Norm())
	}
}

func TestDefaultLResolved(t *testing.T) {
	v := vector.MustNew(100, []uint64{1}, []float64{1})
	s := mustSketch(t, v, Params{M: 4, Seed: 1}) // L = 0 → default
	if s.L() != DefaultL(100) {
		t.Fatalf("resolved L = %d, want %d", s.L(), DefaultL(100))
	}
}

// TestScaleInvariance: sketching c·a changes only the stored norm, so
// estimates scale exactly linearly in c.
func TestScaleInvariance(t *testing.T) {
	rng := hashing.NewSplitMix64(43)
	a := randomSparse(rng, 200, 40, false)
	b := randomSparse(rng, 200, 40, false)
	p := Params{M: 128, Seed: 47, L: 1 << 16}
	sa, sb := mustSketch(t, a, p), mustSketch(t, b, p)
	base, err := Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	scaled := mustSketch(t, a.Scale(3), p)
	got, err := Estimate(scaled, sb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3*base) > 1e-9*math.Max(1, math.Abs(base)) {
		t.Fatalf("scale invariance violated: %v vs 3×%v", got, base)
	}
}
