package psample_test

import (
	"bytes"
	"math"
	"testing"

	ipsketch "repro"
	"repro/internal/psample"
	"repro/internal/vector"
)

// referenceEstimate is the priority-sampling inner-product estimator of
// the sampling repos' reference implementation (priority_sampling.py,
// PSSketch, with norm = 2), ported formula for formula: a two-pointer walk
// over both samples in key order, each shared key contributing
// va·vb / min(1, va²·τA, vb²·τB).
func referenceEstimate(a, b *psample.Sketch) float64 {
	ka, va, tauA := a.Samples()
	kb, vb, tauB := b.Samples()
	i, j := 0, 0
	ipEst := 0.0
	for i < len(ka) && j < len(kb) {
		if ka[i] == kb[j] {
			denominator := min(1, va[i]*va[i]*tauA, vb[j]*vb[j]*tauB)
			ipEst += va[i] * vb[j] / denominator
		}
		if ka[i] <= kb[j] {
			i++
		} else {
			j++
		}
	}
	return ipEst
}

// ulps is the distance between two same-signed floats in units in the
// last place.
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.Signbit(a) != math.Signbit(b) {
		return math.MaxUint64
	}
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	return max(ia, ib) - min(ia, ib)
}

// oraclePairs are the input shapes the oracle is checked on.
func oraclePairs(t *testing.T) map[string][2]vector.Sparse {
	t.Helper()
	const dim = 1000
	mk := func(idx []uint64, val func(i uint64) float64) vector.Sparse {
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = val(i)
		}
		v, err := vector.New(dim, idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	span := func(lo, hi, step uint64) []uint64 {
		var out []uint64
		for i := lo; i < hi; i += step {
			out = append(out, i)
		}
		return out
	}
	pos := func(i uint64) float64 { return 1 + float64(i%7) }
	dense := mk(span(0, dim, 1), pos)
	return map[string][2]vector.Sparse{
		"dense":     {dense, mk(span(0, dim, 1), func(i uint64) float64 { return 2 + float64(i%5) })},
		"sparse":    {mk(span(0, dim, 37), pos), mk(span(0, dim, 53), pos)},
		"disjoint":  {mk(span(0, 400, 2), pos), mk(span(1, 400, 2), pos)},
		"identical": {dense, dense},
		"negative": {
			mk(span(0, 300, 1), func(i uint64) float64 { return float64(i%9) - 4.5 }),
			mk(span(100, 400, 1), func(i uint64) float64 { return 3 - float64(i%4) }),
		},
		"one-entry": {mk([]uint64{17}, pos), mk([]uint64{17}, func(uint64) float64 { return -2.5 })},
	}
}

// TestEstimateMatchesReference: the production priority-sampling
// estimator agrees with the reference formula to within 4 ulps on
// sketches built by the production builder, and ipsketch.Estimate on the
// wrapping sketches returns the production estimate bit for bit — the
// public dispatch routes PS to this formula.
func TestEstimateMatchesReference(t *testing.T) {
	const seed = 7
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodPS, StorageWords: 151, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := psample.NewBuilder(psample.Params{K: s.Size(), Seed: seed, Mode: psample.Priority})
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range oraclePairs(t) {
		var sks [2]*psample.Sketch
		var wrapped [2]*ipsketch.Sketch
		for i, v := range pair {
			if sks[i], err = b.Sketch(v); err != nil {
				t.Fatal(err)
			}
			if wrapped[i], err = s.Sketch(v); err != nil {
				t.Fatal(err)
			}
			raw, _ := sks[i].MarshalBinary()
			env, _ := wrapped[i].MarshalBinary()
			if !bytes.HasSuffix(env, raw) {
				t.Fatalf("%s: the ipsketch sketch does not wrap the builder's sketch", name)
			}
		}
		got, err := psample.Estimate(sks[0], sks[1])
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceEstimate(sks[0], sks[1]); ulps(got, ref) > 4 {
			t.Errorf("%s: Estimate = %v, reference %v (%d ulps apart)", name, got, ref, ulps(got, ref))
		}
		pub, err := ipsketch.Estimate(wrapped[0], wrapped[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pub) != math.Float64bits(got) {
			t.Errorf("%s: ipsketch.Estimate = %v, psample.Estimate = %v", name, pub, got)
		}
	}
}
