package wmh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

// Property tests of the test-only record process (record_test.go): the
// prefix-minimum walk and the literal slot hashing it is checked against.

func TestPrefixMinPanicsOnZeroWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("prefixMin(key, 0) did not panic")
		}
	}()
	prefixMin(1, 0)
}

func TestPrefixMinRange(t *testing.T) {
	for key := uint64(0); key < 5000; key++ {
		v := prefixMin(key, 1+key%1000)
		if !(v > 0 && v < 1) {
			t.Fatalf("prefixMin(%d) = %v outside (0,1)", key, v)
		}
	}
}

func TestPrefixMinDeterministic(t *testing.T) {
	for key := uint64(0); key < 1000; key++ {
		w := 1 + key%500
		if prefixMin(key, w) != prefixMin(key, w) {
			t.Fatalf("prefixMin(%d,%d) not deterministic", key, w)
		}
	}
}

// TestPrefixMinExpectation checks E[min of w iid U(0,1)] = 1/(w+1).
func TestPrefixMinExpectation(t *testing.T) {
	for _, w := range []uint64{1, 2, 5, 10, 100, 10000} {
		const trials = 20000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += prefixMin(hashing.Mix(uint64(i), w), w)
		}
		mean := sum / trials
		want := 1.0 / float64(w+1)
		// Std of the mean is about want/sqrt(trials); allow 6 sigma.
		tol := 6 * want / math.Sqrt(trials)
		if math.Abs(mean-want) > tol {
			t.Errorf("w=%d: mean=%.6g want=%.6g (tol %.2g)", w, mean, want, tol)
		}
	}
}

// TestPrefixMinMonotone checks the prefix min never increases with w.
func TestPrefixMinMonotone(t *testing.T) {
	f := func(key uint64, wa, wb uint16) bool {
		a, b := uint64(wa)+1, uint64(wb)+1
		if a > b {
			a, b = b, a
		}
		return prefixMin(key, a) >= prefixMin(key, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMinMinConsistency is the coordination identity the WMH union
// estimator relies on: min over the two prefixes equals the prefix min of
// the longer prefix, *bitwise*.
func TestPrefixMinMinConsistency(t *testing.T) {
	f := func(key uint64, wa, wb uint16) bool {
		a, b := uint64(wa)+1, uint64(wb)+1
		ma, mb := prefixMin(key, a), prefixMin(key, b)
		return math.Min(ma, mb) == prefixMin(key, max(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMinMatchProbability checks that for wa ≤ wb the two prefix
// minima coincide with probability wa/wb — the event that the argmin of the
// longer prefix lands in the shorter prefix. This is the collision law that
// drives Fact 5 in the paper.
func TestPrefixMinMatchProbability(t *testing.T) {
	cases := []struct {
		wa, wb uint64
		want   float64
	}{
		{50, 100, 0.5},
		{10, 100, 0.1},
		{100, 100, 1.0},
		{1, 4, 0.25},
		{300, 400, 0.75},
	}
	const trials = 40000
	for _, c := range cases {
		match := 0
		for i := 0; i < trials; i++ {
			key := hashing.Mix(uint64(i), c.wa, c.wb)
			if prefixMin(key, c.wa) == prefixMin(key, c.wb) {
				match++
			}
		}
		got := float64(match) / trials
		tol := 4 * math.Sqrt(c.want*(1-c.want)/trials)
		if tol < 1e-9 {
			tol = 1e-9
		}
		if math.Abs(got-c.want) > tol {
			t.Errorf("wa=%d wb=%d: match rate %.4f, want %.4f±%.4f",
				c.wa, c.wb, got, c.want, tol)
		}
	}
}

// TestPrefixMinArgminBlockProportional: when comparing independent blocks,
// the probability that a given block attains the overall minimum must be
// proportional to its weight — uniform sampling over active slots.
func TestPrefixMinArgminBlockProportional(t *testing.T) {
	const w1, w2 = 100, 300
	const trials = 40000
	wins2 := 0
	for i := 0; i < trials; i++ {
		m1 := prefixMin(hashing.Mix(uint64(i), 1), w1)
		m2 := prefixMin(hashing.Mix(uint64(i), 2), w2)
		if m2 < m1 {
			wins2++
		}
	}
	got := float64(wins2) / trials
	want := float64(w2) / float64(w1+w2)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("block-2 win rate %.4f, want %.4f", got, want)
	}
}

func TestGeometricGapMean(t *testing.T) {
	rng := hashing.NewSplitMix64(99)
	for _, z := range []float64{0.9, 0.5, 0.1, 0.01} {
		const trials = 50000
		sum := 0.0
		n := 0
		for i := 0; i < trials; i++ {
			g, ok := geometricGap(rng, z, math.MaxUint64>>2)
			if !ok {
				t.Fatalf("z=%v: gap overflowed an enormous limit", z)
			}
			sum += float64(g)
			n++
		}
		mean := sum / float64(n)
		want := 1.0 / z
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("z=%v: mean gap %.3f, want %.3f", z, mean, want)
		}
	}
}

func TestGeometricGapRespectsLimit(t *testing.T) {
	rng := hashing.NewSplitMix64(101)
	for i := 0; i < 20000; i++ {
		limit := uint64(1 + i%50)
		g, ok := geometricGap(rng, 0.05, limit)
		if ok && g > limit {
			t.Fatalf("gap %d exceeded limit %d", g, limit)
		}
	}
}

func TestGeometricGapTinyZ(t *testing.T) {
	// With z near the smallest positive float the gap is essentially
	// always beyond any sane limit; the function must not overflow.
	rng := hashing.NewSplitMix64(103)
	for i := 0; i < 1000; i++ {
		g, ok := geometricGap(rng, 1e-300, 1000000)
		if ok {
			if g == 0 || g > 1000000 {
				t.Fatalf("invalid gap %d", g)
			}
		}
	}
}

// TestBlockMinNaiveMatchesExplicitLoop pins the naive reference: it must be
// exactly the minimum of the per-slot uniforms over the block's active slots.
func TestBlockMinNaiveMatchesExplicitLoop(t *testing.T) {
	const w = 17
	for key := uint64(0); key < 100; key++ {
		want := math.Inf(1)
		for s := uint64(1); s <= w; s++ {
			if v := hashing.UnitFromBits(hashing.Mix(key, s)); v < want {
				want = v
			}
		}
		if got := blockMinNaive(key, w); got != want {
			t.Fatalf("key %d: got %v want %v", key, got, want)
		}
	}
}

// TestBlockMinNaivePrefixConsistency: like prefixMin, the naive
// construction must satisfy min-consistency across different prefix
// lengths of the same block (it reuses the same slot hashes).
func TestBlockMinNaivePrefixConsistency(t *testing.T) {
	f := func(key uint64, wa, wb uint8) bool {
		a, b := uint64(wa)+1, uint64(wb)+1
		ma, mb := blockMinNaive(key, a), blockMinNaive(key, b)
		return math.Min(ma, mb) == blockMinNaive(key, max(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockMinNaiveDistributionAgreesWithPrefixMin compares the means of
// the two constructions: both should estimate E[min of w uniforms].
func TestBlockMinNaiveDistributionAgreesWithPrefixMin(t *testing.T) {
	const w = 25
	const trials = 20000
	sumNaive, sumFast := 0.0, 0.0
	for i := 0; i < trials; i++ {
		sumNaive += blockMinNaive(hashing.Mix(uint64(i), 0xdef), w)
		sumFast += prefixMin(hashing.Mix(uint64(i), 0xabc), w)
	}
	want := 1.0 / float64(w+1)
	for name, mean := range map[string]float64{
		"naive": sumNaive / trials,
		"fast":  sumFast / trials,
	} {
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("%s mean %.5f, want %.5f", name, mean, want)
		}
	}
}

func TestBlockMinNaivePanicsOnZeroWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("blockMinNaive with w=0 did not panic")
		}
	}()
	blockMinNaive(1, 0)
}
