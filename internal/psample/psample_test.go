package psample

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
	"repro/internal/vector"
)

func modes() []Mode { return []Mode{Priority, Threshold} }

func testPair(t testing.TB, overlap float64, seed uint64) (vector.Sparse, vector.Sparse) {
	t.Helper()
	a, b, err := datagen.SyntheticPair(datagen.PaperPairParams(overlap, seed))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func randomSparse(t testing.TB, seed uint64, nnz int) vector.Sparse {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	idx := make([]uint64, 0, nnz)
	vals := make([]float64, 0, nnz)
	next := uint64(0)
	for len(idx) < nnz {
		next += 1 + rng.Uint64()%40
		v := rng.Norm()
		if v == 0 {
			v = 1
		}
		idx = append(idx, next)
		vals = append(vals, v)
	}
	return vector.MustNew(1<<16, idx, vals)
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 10, Mode: Priority}).Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	for _, p := range []Params{
		{K: 0, Mode: Priority},
		{K: -3, Mode: Threshold},
		{K: 10, Mode: Mode(7)},
	} {
		if p.Validate() == nil {
			t.Errorf("bad params accepted: %+v", p)
		}
	}
}

// intersectionBound returns the follow-up paper's error scale for the
// pair: sqrt((‖a_I‖²‖b‖² + ‖b_I‖²‖a‖²)/k), an upper bound on the standard
// deviation of both estimators.
func intersectionBound(a, b vector.Sparse, k int) float64 {
	var aI2, bI2 float64
	a.Range(func(idx uint64, av float64) bool {
		if bv := b.At(idx); bv != 0 {
			aI2 += av * av
			bI2 += bv * bv
		}
		return true
	})
	return math.Sqrt((aI2*b.SquaredNorm() + bI2*a.SquaredNorm()) / float64(k))
}

// TestUnbiasedAndWithinBound sketches one fixed pair under many seeds:
// the empirical mean must converge to the exact inner product and the
// empirical RMSE must sit below the paper's error scale.
func TestUnbiasedAndWithinBound(t *testing.T) {
	a, b := testPair(t, 0.3, 17)
	truth := vector.Dot(a, b)
	const k = 64
	const trials = 400
	for _, mode := range modes() {
		var sum, sumSq float64
		for trial := 0; trial < trials; trial++ {
			p := Params{K: k, Seed: uint64(1000 + trial), Mode: mode}
			sa, err := New(a, p)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := New(b, p)
			if err != nil {
				t.Fatal(err)
			}
			est, err := Estimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			d := est - truth
			sum += d
			sumSq += d * d
		}
		mean := sum / trials
		rmse := math.Sqrt(sumSq / trials)
		bound := intersectionBound(a, b, k)
		// Unbiasedness: the mean error is zero up to sampling noise of the
		// mean itself (RMSE/√trials), with a 4σ gate.
		if math.Abs(mean) > 4*rmse/math.Sqrt(trials) {
			t.Errorf("%v: mean error %v exceeds 4σ=%v (truth %v)",
				mode, mean, 4*rmse/math.Sqrt(trials), truth)
		}
		// Accuracy: the paper's variance analysis upper-bounds the RMSE by
		// the intersection error scale.
		if rmse > 1.2*bound {
			t.Errorf("%v: RMSE %v exceeds error scale %v", mode, rmse, bound)
		}
	}
}

// TestErrorDecay: quadrupling the sample budget must roughly halve the
// RMSE (1/√k decay).
func TestErrorDecay(t *testing.T) {
	a, b := testPair(t, 0.3, 23)
	truth := vector.Dot(a, b)
	const trials = 200
	rmse := func(mode Mode, k int) float64 {
		var sumSq float64
		for trial := 0; trial < trials; trial++ {
			p := Params{K: k, Seed: uint64(500 + trial), Mode: mode}
			sa, _ := New(a, p)
			sb, _ := New(b, p)
			est, err := Estimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			sumSq += (est - truth) * (est - truth)
		}
		return math.Sqrt(sumSq / trials)
	}
	for _, mode := range modes() {
		small, large := rmse(mode, 32), rmse(mode, 128)
		if large > 0.7*small {
			t.Errorf("%v: RMSE %v at k=128 not well below %v at k=32", mode, large, small)
		}
	}
}

// TestPriorityExactUnderFullRetention: when both supports fit in the
// sample budget, priority sampling keeps everything with probability one
// and the estimate is the exact inner product.
func TestPriorityExactUnderFullRetention(t *testing.T) {
	a := randomSparse(t, 3, 40)
	b := randomSparse(t, 4, 40)
	p := Params{K: 64, Seed: 9, Mode: Priority}
	sa, _ := New(a, p)
	sb, _ := New(b, p)
	if !sa.SawAll() || !sb.SawAll() {
		t.Fatal("full support not retained")
	}
	est, err := Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	truth := vector.Dot(a, b)
	if math.Abs(est-truth) > 1e-9*math.Max(1, math.Abs(truth)) {
		t.Fatalf("full-retention estimate %v, want exact %v", est, truth)
	}
}

func TestEmptyAndMismatches(t *testing.T) {
	empty := vector.MustNew(1<<16, nil, nil)
	v := randomSparse(t, 5, 100)
	for _, mode := range modes() {
		p := Params{K: 16, Seed: 1, Mode: mode}
		se, err := New(empty, p)
		if err != nil {
			t.Fatal(err)
		}
		if !se.IsEmpty() {
			t.Errorf("%v: empty vector produced %d samples", mode, se.Len())
		}
		sv, _ := New(v, p)
		est, err := Estimate(se, sv)
		if err != nil || est != 0 {
			t.Errorf("%v: empty estimate = %v, %v", mode, est, err)
		}
		// Incompatible pairs must error, never return garbage.
		for _, q := range []Params{
			{K: 16, Seed: 2, Mode: mode},     // seed
			{K: 32, Seed: 1, Mode: mode},     // size
			{K: 16, Seed: 1, Mode: 1 - mode}, // mode
		} {
			so, err := New(v, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Estimate(sv, so); err == nil {
				t.Errorf("%v: estimate accepted incompatible params %+v", mode, q)
			}
		}
	}
}

// TestBuilderMatchesNew: the reusable builder must produce sketches
// identical to one-shot construction, including after scratch reuse.
func TestBuilderMatchesNew(t *testing.T) {
	vs := []vector.Sparse{
		randomSparse(t, 11, 5),
		randomSparse(t, 12, 300),
		vector.MustNew(1<<16, nil, nil),
		randomSparse(t, 13, 64),
		randomSparse(t, 14, 1000),
	}
	for _, mode := range modes() {
		p := Params{K: 64, Seed: 21, Mode: mode}
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			got, err := b.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: builder sketch %d differs from New", mode, i)
			}
		}
	}
}

// TestBuilderSketchAllocs: a warm Builder allocates only the sketch and
// its two sample arrays, alternating supports of different sizes
// (including ones below K) so scratch sized to one vector instead of the
// budget would be caught reallocating.
func TestBuilderSketchAllocs(t *testing.T) {
	small := randomSparse(t, 30, 20)
	large := randomSparse(t, 31, 500)
	for _, mode := range modes() {
		b, err := NewBuilder(Params{K: 64, Seed: 41, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []vector.Sparse{small, large} { // warm-up
			if _, err := b.Sketch(v); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, v := range []vector.Sparse{small, large} {
				if _, err := b.Sketch(v); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 2*3 {
			t.Errorf("%v: two warm Sketch calls allocate %v times, want 6", mode, allocs)
		}
	}
}

// TestThresholdSampleSizeConcentrates: the threshold sample has expected
// size ≤ k and should land near it for a support much larger than k.
func TestThresholdSampleSizeConcentrates(t *testing.T) {
	v := randomSparse(t, 51, 2000)
	const k = 100
	total := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		s, err := New(v, Params{K: k, Seed: uint64(trial), Mode: Threshold})
		if err != nil {
			t.Fatal(err)
		}
		total += s.Len()
	}
	meanLen := float64(total) / trials
	if meanLen > k+3*math.Sqrt(k) || meanLen < k-3*math.Sqrt(k) {
		t.Fatalf("mean threshold sample size %v far from k=%d", meanLen, k)
	}
}

// TestPrioritySampleSizeExact: priority sampling stores exactly
// min(k, usable support) samples.
func TestPrioritySampleSizeExact(t *testing.T) {
	for _, nnz := range []int{5, 64, 65, 300} {
		v := randomSparse(t, uint64(60+nnz), nnz)
		k := 64
		s, err := New(v, Params{K: k, Seed: 7, Mode: Priority})
		if err != nil {
			t.Fatal(err)
		}
		want := nnz
		if want > k {
			want = k
		}
		if s.Len() != want {
			t.Errorf("nnz=%d: %d samples, want %d", nnz, s.Len(), want)
		}
		if got, sawAll := s.SawAll(), nnz <= k; got != sawAll {
			t.Errorf("nnz=%d: SawAll=%v, want %v", nnz, got, sawAll)
		}
	}
}

func inf() float64 { return math.Inf(1) }

// TestOverflowingNormRejected: entries near 1e154 push the squared norm
// past float64; construction must error rather than emit a sketch whose
// inclusion probabilities collapsed to zero (silent garbage) and whose
// serialization its own decoder rejects.
func TestOverflowingNormRejected(t *testing.T) {
	v := vector.MustNew(1<<10, []uint64{1, 2}, []float64{1e160, -1e160})
	for _, mode := range modes() {
		if _, err := New(v, Params{K: 8, Seed: 1, Mode: mode}); err == nil {
			t.Errorf("%v: overflowing squared norm accepted", mode)
		}
	}
}

func TestStorageWords(t *testing.T) {
	v := randomSparse(t, 71, 500)
	for _, mode := range modes() {
		s, err := New(v, Params{K: 100, Seed: 1, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.StorageWords(); got != 151 {
			t.Errorf("%v: StorageWords = %v, want 151", mode, got)
		}
	}
}
