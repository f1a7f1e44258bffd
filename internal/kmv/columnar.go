package kmv

// Cols is a structure-of-arrays packing of many bottom-k sketches built
// under one Params. Retained samples are variable-length, so sketches are
// addressed through a prefix-offset array; the per-sketch aux word is the
// true support size (SawAll needs it). The scan runs the pairwise
// estimators' threshold walk against each packed slot.
type Cols struct {
	p      Params
	off    []int // len n+1: sketch t occupies [off[t], off[t+1])
	nnz    []int // per-sketch true support size
	hashes []uint64
	vals   []float64
}

// NewCols returns an empty pack pinned to p.
func NewCols(p Params) *Cols { return &Cols{p: p, off: []int{0}} }

// Append packs one sketch. The caller guarantees Compatible(s, ref) for
// every sketch in the pack (the dispatch layer owns that invariant).
func (c *Cols) Append(s *Sketch) {
	c.hashes = append(c.hashes, s.hashes...)
	c.vals = append(c.vals, s.vals...)
	c.off = append(c.off, len(c.hashes))
	c.nnz = append(c.nnz, s.nnz)
}

// scanOne runs the shared threshold walk of q against packed sketch t.
func (c *Cols) scanOne(q *Sketch, t int) (sum float64, matched int, tau float64) {
	k := c.p.K
	lo, hi := c.off[t], c.off[t+1]
	return threshold(k, q.hashes, q.vals, q.SawAll(), c.hashes[lo:hi], c.vals[lo:hi], c.nnz[t] <= k)
}

// Scan scores every query sketch in qs against every packed sketch in
// [lo, hi): out[(t−lo)·stride + offs[qi]] = Estimate(qs[qi], packed t),
// bit-identical because both run threshold. The caller guarantees each
// query is Compatible with the pack.
func (c *Cols) Scan(qs []*Sketch, lo, hi int, out []float64, stride int, offs []int) {
	for t := lo; t < hi; t++ {
		base := (t - lo) * stride
		for qi, q := range qs {
			o := base + offs[qi]
			if q.IsEmpty() || c.off[t] == c.off[t+1] {
				out[o] = 0
				continue
			}
			sum, _, tau := c.scanOne(q, t)
			out[o] = sum / tau
		}
	}
}

// ScanJoinSize is Scan for JoinSizeEstimate: out gets matched-count/τ,
// the threshold estimate of |A∩B|.
func (c *Cols) ScanJoinSize(q *Sketch, lo, hi int, out []float64, stride, off int) {
	for t := lo; t < hi; t++ {
		o := (t-lo)*stride + off
		if q.IsEmpty() || c.off[t] == c.off[t+1] {
			out[o] = 0
			continue
		}
		_, matched, tau := c.scanOne(q, t)
		out[o] = float64(matched) / tau
	}
}
