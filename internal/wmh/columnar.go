package wmh

import "repro/internal/sample"

// Sample returns the stored minima and block values for a sample.Cols,
// aliased, with the norm ‖v‖ as the aux word.
func (s *Sketch) Sample() ([]float64, []float64, float64) { return s.hashes, s.vals, s.norm }

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi) of c: out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run collide with the paper's FMUnion default
// (the query is always the estimator's first argument, matching how
// EstimateJoinStats orders its operands). The caller guarantees each
// query is Compatible with every packed sketch, so the query's M and
// resolved L are the pack's.
func Scan(c *sample.Cols[float64], qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		ch, cv, norm := c.At(t)
		for qi, q := range qs {
			o := base + offs[qi]
			if q.empty || len(ch) == 0 {
				out[o] = 0
				continue
			}
			m := q.params.M
			sumMin, sum, _ := collide(q.hashes, q.vals, ch, cv)
			out[o] = estimate(m, fmUnion(m, q.l, sumMin), sum, q.norm, norm)
		}
	}
}
