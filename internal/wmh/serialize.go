package wmh

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

// MarshalBinary encodes the sketch. Layout: M, Seed, L(param), quantized,
// L(resolved), dim, norm, empty, variant (always dartVariant), hashes,
// vals.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.M))
	w.U64(s.params.Seed)
	w.U64(s.params.L)
	w.Bool(s.params.QuantizeValues)
	w.U64(s.l)
	w.U64(s.dim)
	w.F64(s.norm)
	w.Bool(s.empty)
	w.Byte(dartVariant)
	w.F64s(s.hashes)
	w.F64s(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m := r.U64()
	seed := r.U64()
	lParam := r.U64()
	quantized := r.Bool()
	l := r.U64()
	dim := r.U64()
	norm := r.F64()
	empty := r.Bool()
	vr := r.Byte()
	hashes := r.F64s()
	vals := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("wmh: decoding sketch: %w", err)
	}
	if vr < dartVariant {
		return fmt.Errorf("wmh: sketch variant %d is a retired construction; re-sketch the source data", vr)
	}
	if vr != dartVariant {
		return fmt.Errorf("wmh: unknown sketch variant %d", vr)
	}
	p := Params{M: int(m), Seed: seed, L: lParam, QuantizeValues: quantized}
	if err := p.Validate(); err != nil {
		return err
	}
	if l == 0 || l > MaxL {
		return fmt.Errorf("wmh: resolved L %d out of range", l)
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) || norm < 0 {
		return fmt.Errorf("wmh: invalid stored norm %v", norm)
	}
	if empty {
		if len(hashes) != 0 || len(vals) != 0 {
			return errors.New("wmh: empty sketch with samples")
		}
	} else if len(hashes) != int(m) || len(vals) != int(m) {
		return fmt.Errorf("wmh: sketch has %d/%d samples, want %d", len(hashes), len(vals), m)
	}
	if err := sample.Check(hashes, vals, false); err != nil {
		return fmt.Errorf("wmh: %w", err)
	}
	// The dart construction stores minima in (0, 1] (dart values) and
	// Algorithm 4's values ±√(w/L), 1 ≤ w ≤ L ≤ 2⁵⁰. Minima of 0 make the
	// union estimate infinite and one outside skews it; a value whose
	// square is 0 divides a collision by q_i = 0. The stored norm may be
	// 0: a vector whose squared norm underflows has one.
	for i, h := range hashes {
		if h <= 0 || h > 1 {
			return fmt.Errorf("wmh: stored minimum %v at %d outside (0, 1]", h, i)
		}
		if v := vals[i]; v*v == 0 || math.Abs(v) > 1 {
			return fmt.Errorf("wmh: stored value %v at %d outside the rounded range", v, i)
		}
	}
	*s = Sketch{
		params: p, dim: dim, l: l, norm: norm,
		empty: empty, hashes: hashes, vals: vals,
	}
	return nil
}
