package minhash

import "repro/internal/sample"

// Sample returns the stored minima and values for a sample.Cols, aliased,
// and no aux word.
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.hashes, s.vals, 0 }

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi) of c: out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run collide. The caller guarantees each
// query is Compatible with every packed sketch.
func Scan(c *sample.Cols[uint64], qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	// Candidate-outer: one packed slot stays cache-resident while every
	// query scores it.
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		ch, cv, _ := c.At(t)
		for qi, q := range qs {
			o := base + offs[qi]
			if q.empty || len(ch) == 0 {
				out[o] = 0
				continue
			}
			sumMin, sum := collide(q.hashes, q.vals, ch, cv)
			out[o] = estimate(q.params.M, sumMin, sum)
		}
	}
}
