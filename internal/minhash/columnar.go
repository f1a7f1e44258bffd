package minhash

// Cols is a structure-of-arrays packing of many sketches built under one
// Params: every sketch's sample arrays are laid out contiguously at a
// fixed stride M, so a catalog scan streams cache-resident flat arrays
// instead of chasing one heap object per candidate. Empty sketches keep
// their (zero-filled) stride slot and are skipped by a flag, which keeps
// slot addressing branch-free.
type Cols struct {
	p      Params
	n      int
	empty  []bool
	hashes []uint64  // n·M minima, sketch-major
	vals   []float64 // n·M argmin values, sketch-major
}

// NewCols returns an empty pack pinned to p.
func NewCols(p Params) *Cols { return &Cols{p: p} }

// Append packs one sketch. The caller guarantees Compatible(s, ref) for
// every sketch in the pack (the dispatch layer owns that invariant);
// Append only pins the stride.
func (c *Cols) Append(s *Sketch) {
	m := c.p.M
	at := c.n * m
	c.hashes = append(c.hashes, make([]uint64, m)...)
	c.vals = append(c.vals, make([]float64, m)...)
	c.empty = append(c.empty, s.empty)
	if !s.empty {
		copy(c.hashes[at:], s.hashes)
		copy(c.vals[at:], s.vals)
	}
	c.n++
}

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi): out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run collide. The caller guarantees each
// query is Compatible with the pack.
func (c *Cols) Scan(qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	m := c.p.M
	// Candidate-outer: one packed stride slot stays cache-resident while
	// every query scores it.
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		ch := c.hashes[t*m : (t+1)*m]
		cv := c.vals[t*m : (t+1)*m]
		for qi, q := range qs {
			o := base + offs[qi]
			if q.empty || c.empty[t] {
				out[o] = 0
				continue
			}
			sumMin, sum, _ := collide(q.hashes, q.vals, ch, cv)
			out[o] = estimate(m, sumMin, sum)
		}
	}
}
