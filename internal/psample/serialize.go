package psample

import (
	"fmt"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

// MarshalBinary encodes the sketch. Layout: K, Seed, mode, dim, nnz,
// normSq, tau, idx, vals.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.K))
	w.U64(s.params.Seed)
	w.Byte(byte(s.params.Mode))
	w.U64(s.dim)
	w.U64(uint64(s.nnz))
	w.F64(s.normSq)
	w.F64(s.tau)
	w.U64s(s.idx)
	w.F64s(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	k := r.U64()
	seed := r.U64()
	mode := Mode(r.Byte())
	dim := r.U64()
	nnz := r.U64()
	normSq := r.F64()
	tau := r.F64()
	idx := r.U64s()
	vals := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("psample: decoding sketch: %w", err)
	}
	p := Params{K: int(k), Seed: seed, Mode: mode}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sample.Check(idx, vals, true); err != nil {
		return fmt.Errorf("psample: %w", err)
	}
	n, err := sample.Support(nnz, dim)
	if err != nil {
		return fmt.Errorf("psample: %w", err)
	}
	// Check made idx strictly ascending, so its last entry is the largest.
	if len(idx) > 0 && idx[len(idx)-1] >= dim {
		return fmt.Errorf("psample: stored index %d outside dimension %d", idx[len(idx)-1], dim)
	}
	if math.IsNaN(normSq) || math.IsInf(normSq, 0) || normSq < 0 {
		return fmt.Errorf("psample: invalid stored squared norm %v", normSq)
	}
	// The squared norm sums v² over the support, and a float sum of
	// non-negative terms never falls below one of its terms, so an honest
	// sketch stores no value with v² > normSq. A larger one overstates its
	// threshold inclusion probability, or overflows the estimate.
	for i, v := range vals {
		if v*v > normSq {
			return fmt.Errorf("psample: stored value %v at %d exceeds the stored norm (squared %v)", v, i, normSq)
		}
	}
	if math.IsNaN(tau) || tau < 0 {
		return fmt.Errorf("psample: invalid threshold rank %v", tau)
	}
	switch mode {
	case Priority:
		if uint64(len(idx)) > k {
			return fmt.Errorf("psample: %d samples exceed K=%d", len(idx), k)
		}
		// Construction yields a finite threshold exactly when more than K
		// usable entries competed, in which case exactly K were retained.
		// A payload violating that would make inclusion scale samples
		// as if K were retained — silently biased estimates.
		if !math.IsInf(tau, 1) && (uint64(len(idx)) != k || nnz <= k) {
			return fmt.Errorf("psample: finite threshold rank with %d of %d samples (support %d)", len(idx), k, nnz)
		}
	case Threshold:
		if !math.IsInf(tau, 1) {
			return fmt.Errorf("psample: threshold sketch carries rank threshold %v", tau)
		}
		// A stored sample implies a positive inclusion probability, which
		// requires a positive squared norm; normSq == 0 would clamp every
		// probability to 1 and return the raw product sum.
		if len(idx) > 0 && normSq <= 0 {
			return fmt.Errorf("psample: %d samples stored with squared norm %v", len(idx), normSq)
		}
	}
	if uint64(len(idx)) > nnz {
		return fmt.Errorf("psample: %d samples exceed support size %d", len(idx), nnz)
	}
	*s = Sketch{params: p, dim: dim, nnz: n, normSq: normSq, tau: tau, idx: idx, vals: vals}
	return nil
}
