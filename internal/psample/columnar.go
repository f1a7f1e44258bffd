package psample

import "repro/internal/sample"

// Sample returns the stored indices and values for a sample.Cols, aliased,
// with the inclusion factor (probFactor) as the aux word.
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.idx, s.vals, s.probFactor() }

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi) of c: out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run mergeJoin. The caller guarantees each
// query is Compatible with every packed sketch, so the query's mode is
// the pack's.
func Scan(c *sample.Cols[uint64], qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		bi, bv, factor := c.At(t)
		for qi, q := range qs {
			out[base+offs[qi]] = mergeJoin(q.idx, q.vals, q.probFactor(), bi, bv, factor, q.params.Mode == Priority)
		}
	}
}
