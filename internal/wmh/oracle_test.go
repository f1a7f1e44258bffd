package wmh_test

import (
	"bytes"
	"math"
	"testing"

	ipsketch "repro"
	"repro/internal/vector"
	"repro/internal/wmh"
)

// referenceEstimate is the dart WMH inner-product estimator of the sampling
// repos' reference implementation (dart_minhash.py, DartMHSketch), ported
// formula for formula: with M̂ = 1/mean(min(hA, hB)) − 1,
// ‖a‖·‖b‖·(M̂/m)·Σ_{hA=hB} va·vb / min(va², vb²), evaluated left to right.
func referenceEstimate(a, b *wmh.Sketch) float64 {
	ha, va := a.Samples()
	hb, vb := b.Samples()
	m := len(ha)
	sumMin := 0.0
	for i := range ha {
		sumMin += min(ha[i], hb[i])
	}
	meanMin := sumMin / float64(m)
	mEst := 1/meanMin - 1
	sumM := 0.0
	for i := range ha {
		if ha[i] == hb[i] {
			sumM += va[i] * vb[i] / min(va[i]*va[i], vb[i]*vb[i])
		}
	}
	return a.Norm() * b.Norm() * (mEst / float64(m)) * sumM
}

// reconciledEstimate is referenceEstimate with Algorithm 5's differences
// applied, one substitution each (DESIGN.md §6):
//  1. M̂ is divided by L. The stored hashes are minima over the L slots
//     per unit of squared weight that Algorithm 4's rounding expands a
//     unit vector into, so 1/mean − 1 estimates L times the weighted
//     union Σmax(ã², b̃²); the reference's hashes are minima over the
//     weights themselves.
//  2. 1/mean(min) is computed as m/Σmin: the same quantity with one
//     rounding fewer.
//  3. The product associates as ‖a‖‖b‖·((M̂/m)·Σ) instead of
//     ((‖a‖‖b‖)·(M̂/m))·Σ.
//
// With those three, the production estimate is this one bit for bit.
func reconciledEstimate(a, b *wmh.Sketch) float64 {
	ha, va := a.Samples()
	hb, vb := b.Samples()
	m := len(ha)
	sumMin := 0.0
	for i := range ha {
		sumMin += min(ha[i], hb[i])
	}
	mEst := (float64(m)/sumMin - 1) / float64(a.L())
	sumM := 0.0
	for i := range ha {
		if ha[i] == hb[i] {
			sumM += va[i] * vb[i] / min(va[i]*va[i], vb[i]*vb[i])
		}
	}
	return a.Norm() * b.Norm() * (mEst / float64(m) * sumM)
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

// oraclePairs are the input shapes the oracle is checked on, over the
// served key space, so L resolves to MaxL = 2⁵⁰ — the scale at which dart
// values are of order 10⁻¹⁵.
func oraclePairs(t *testing.T) map[string][2]vector.Sparse {
	t.Helper()
	const dim = 1 << 63
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
	dense := mk(span(0, 1000, 1), pos)
	return map[string][2]vector.Sparse{
		"dense":     {dense, mk(span(0, 1000, 1), func(i uint64) float64 { return 2 + float64(i%5) })},
		"sparse":    {mk(span(0, 1000, 37), pos), mk(span(0, 1000, 53), pos)},
		"disjoint":  {mk(span(0, 400, 2), pos), mk(span(1, 400, 2), pos)},
		"identical": {dense, dense},
		"negative": {
			mk(span(0, 300, 1), func(i uint64) float64 { return float64(i%9) - 4.5 }),
			mk(span(100, 400, 1), func(i uint64) float64 { return 3 - float64(i%4) }),
		},
		"one-entry": {mk([]uint64{17}, pos), mk([]uint64{17}, func(uint64) float64 { return -2.5 })},
	}
}

// TestEstimateMatchesReference: on dart sketches built by the production
// builder, Algorithm 5 is the reference formula bit for bit under the
// substitutions reconciledEstimate lists, and within 4 ulps of the
// reference itself once its M̂ is divided by L (an exact division: L is a
// power of two). ipsketch.Estimate on the wrapping sketches returns the
// production estimate bit for bit, and sketches of disjoint vectors share
// no minimum, so both formulas give exactly 0 there.
func TestEstimateMatchesReference(t *testing.T) {
	const seed = 7
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := wmh.NewBuilder(wmh.Params{M: s.Size(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range oraclePairs(t) {
		var sks [2]*wmh.Sketch
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
		if l := sks[0].L(); l != wmh.MaxL {
			t.Fatalf("%s: resolved L %d, want MaxL", name, l)
		}
		got, err := wmh.Estimate(sks[0], sks[1])
		if err != nil {
			t.Fatal(err)
		}
		if rec := reconciledEstimate(sks[0], sks[1]); math.Float64bits(got) != math.Float64bits(rec) {
			t.Errorf("%s: Estimate = %v, reconciled reference %v", name, got, rec)
		}
		if ref := referenceEstimate(sks[0], sks[1]) / float64(sks[0].L()); ulps(got, ref) > 4 {
			t.Errorf("%s: Estimate = %v, reference/L %v (%d ulps apart)", name, got, ref, ulps(got, ref))
		}
		if name == "disjoint" && got != 0 {
			t.Errorf("disjoint: Estimate = %v, want exactly 0", got)
		}
		pub, err := ipsketch.Estimate(wrapped[0], wrapped[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pub) != math.Float64bits(got) {
			t.Errorf("%s: ipsketch.Estimate = %v, wmh.Estimate = %v", name, pub, got)
		}
		t.Logf("%s: estimate %.6g, truth %.6g", name, got, vector.Dot(pair[0], pair[1]))
	}
}
