package psample

// Cols is a structure-of-arrays packing of many coordinated samples built
// under one Params. Samples are variable-length, addressed through a
// prefix-offset array; the per-sketch aux word is the inclusion-probability
// factor (probFactor), which is all mergeJoin needs besides the samples.
type Cols struct {
	p      Params
	off    []int     // len n+1: sketch t occupies [off[t], off[t+1])
	factor []float64 // per-sketch K/normSq (Threshold) or τ (Priority)
	idx    []uint64
	vals   []float64
}

// NewCols returns an empty pack pinned to p.
func NewCols(p Params) *Cols { return &Cols{p: p, off: []int{0}} }

// Append packs one sketch. The caller guarantees Compatible(s, ref) for
// every sketch in the pack (the dispatch layer owns that invariant).
func (c *Cols) Append(s *Sketch) {
	c.idx = append(c.idx, s.idx...)
	c.vals = append(c.vals, s.vals...)
	c.off = append(c.off, len(c.idx))
	c.factor = append(c.factor, s.probFactor())
}

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi): out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run mergeJoin. The caller guarantees each
// query is Compatible with the pack.
func (c *Cols) Scan(qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	priority := c.p.Mode == Priority
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		bi := c.idx[c.off[t]:c.off[t+1]]
		bv := c.vals[c.off[t]:c.off[t+1]]
		factor := c.factor[t]
		for qi, q := range qs {
			out[base+offs[qi]] = mergeJoin(q.idx, q.vals, q.probFactor(), bi, bv, factor, priority)
		}
	}
}
