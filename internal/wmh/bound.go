package wmh

import "math"

// This file estimates the Theorem 2 error scale from the sketches
// themselves, so callers can attach data-driven confidence intervals to
// estimates without ever seeing the vectors.
//
// The bound max(‖a_I‖·‖b‖, ‖a‖·‖b_I‖) needs the intersection norms
// ‖a_I‖², ‖b_I‖² — and those are themselves sums over the support
// intersection, estimable from exactly the same coordinated samples as the
// inner product: by Fact 5 the matched sample at index j arrives with
// probability min(ã_j², b̃_j²)/Σmax, so
//
//	E[ 1[match] · ã_j²/q_i ] = ã_j² / Σmax   (q_i = min(ã_j², b̃_j²))
//
// and M̃·(1/m)·Σ 1[match]·ã_j²/q_i is an estimator of ‖ã_I‖², which scales
// back to ‖a_I‖² by ‖a‖².

// ErrorBound is a data-driven error interval for an inner-product
// estimate.
type ErrorBound struct {
	// Scale estimates max(‖a_I‖‖b‖, ‖a‖‖b_I‖), the Theorem 2 error
	// magnitude for ε = 1.
	Scale float64
	// PerSqrtM is Scale/√m: the one-standard-deviation-order additive
	// error of a size-m sketch (the Theorem 2 guarantee is ε·Scale with
	// ε = O(1/√m); constants are absorbed into the user's multiple).
	PerSqrtM float64
}

// EstimateErrorBound estimates the Theorem 2 error scale for the pair from
// the sketches alone. The estimate concentrates like the inner-product
// estimate itself (same samples, bounded ratios). For disjoint or empty
// vectors the bound is 0 — as is the true Theorem 2 scale, since
// ‖a_I‖ = ‖b_I‖ = 0.
func EstimateErrorBound(a, b *Sketch) (ErrorBound, error) {
	if err := Compatible(a, b); err != nil {
		return ErrorBound{}, err
	}
	if a.empty || b.empty {
		return ErrorBound{}, nil
	}
	m := a.params.M
	sumMin := 0.0
	sumA, sumB := 0.0, 0.0
	for i := 0; i < m; i++ {
		ha, hb := a.hashes[i], b.hashes[i]
		if ha < hb {
			sumMin += ha
		} else {
			sumMin += hb
		}
		if ha == hb {
			va, vb := a.vals[i], b.vals[i]
			q := math.Min(va*va, vb*vb)
			sumA += va * va / q
			sumB += vb * vb / q
		}
	}
	mTilde := (float64(m)/sumMin - 1) / float64(a.l)
	normAISq := mTilde / float64(m) * sumA * a.norm * a.norm // ‖a_I‖² estimate
	normBISq := mTilde / float64(m) * sumB * b.norm * b.norm // ‖b_I‖² estimate
	scale := math.Max(math.Sqrt(normAISq)*b.norm, a.norm*math.Sqrt(normBISq))
	return ErrorBound{
		Scale:    scale,
		PerSqrtM: scale / math.Sqrt(float64(m)),
	}, nil
}
