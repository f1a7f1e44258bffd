package kmv

import "repro/internal/sample"

// Sample returns the retained hashes and values for a sample.Cols,
// aliased, with the true support size as the aux word (SawAll reads it).
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.hashes, s.vals, float64(s.nnz) }

// scanOne runs the shared threshold walk of q against packed sketch t.
// A packed support size of at most K means the slot holds it whole.
func scanOne(c *sample.Cols[uint64], q *Sketch, t int) (sum float64, matched int, tau float64) {
	k := q.params.K
	ch, cv, nnz := c.At(t)
	if q.IsEmpty() || len(ch) == 0 {
		return 0, 0, 1
	}
	return threshold(k, q.hashes, q.vals, q.SawAll(), ch, cv, nnz <= float64(k))
}

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi) of c: out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run threshold. The caller guarantees each
// query is Compatible with every packed sketch.
func Scan(c *sample.Cols[uint64], qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		for qi, q := range qs {
			sum, _, tau := scanOne(c, q, t)
			out[base+offs[qi]] = sum / tau
		}
	}
}

// ScanJoinSize is Scan for JoinSizeEstimate: out gets matched-count/τ,
// the threshold estimate of |A∩B|.
func ScanJoinSize(c *sample.Cols[uint64], q *Sketch, lo, hi int, out []float64, stride, off int) {
	for t := lo; t < hi; t++ {
		_, matched, tau := scanOne(c, q, t)
		out[(t-lo)*stride+off] = float64(matched) / tau
	}
}
