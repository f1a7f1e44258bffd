package wmh

// Cols is a structure-of-arrays packing of many sketches built under one
// Params (and one resolved L and construction variant): sample arrays are
// laid out contiguously at a fixed stride M with one aux norm word per
// sketch, so a catalog scan streams flat arrays instead of chasing one
// heap object per candidate. Empty sketches keep a zero-filled stride
// slot and are skipped by a flag.
type Cols struct {
	p      Params
	l      uint64
	n      int
	empty  []bool
	norms  []float64 // per-sketch ‖v‖ aux word
	hashes []float64 // n·M per-sample minima, sketch-major
	vals   []float64 // n·M argmin block values, sketch-major
}

// NewCols returns an empty pack pinned to the reference sketch's
// parameters, resolved L, and variant (ref is not packed).
func NewCols(ref *Sketch) *Cols { return &Cols{p: ref.params, l: ref.l} }

// Append packs one sketch. The caller guarantees Compatible(s, ref) for
// every sketch in the pack (the dispatch layer owns that invariant).
func (c *Cols) Append(s *Sketch) {
	m := c.p.M
	at := c.n * m
	c.hashes = append(c.hashes, make([]float64, m)...)
	c.vals = append(c.vals, make([]float64, m)...)
	c.empty = append(c.empty, s.empty)
	c.norms = append(c.norms, s.norm)
	if !s.empty {
		copy(c.hashes[at:], s.hashes)
		copy(c.vals[at:], s.vals)
	}
	c.n++
}

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi): out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run collide with the paper's FMUnion default
// (the query is always the estimator's first argument, matching how
// EstimateJoinStats orders its operands). The caller guarantees each
// query is Compatible with the pack.
func (c *Cols) Scan(qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	m := c.p.M
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		ch := c.hashes[t*m : (t+1)*m]
		cv := c.vals[t*m : (t+1)*m]
		norm := c.norms[t]
		for qi, q := range qs {
			o := base + offs[qi]
			if q.empty || c.empty[t] {
				out[o] = 0
				continue
			}
			sumMin, sum, _ := collide(q.hashes, q.vals, ch, cv)
			out[o] = estimate(m, fmUnion(m, c.l, sumMin), sum, q.norm, norm)
		}
	}
}
