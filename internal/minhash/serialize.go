package minhash

import (
	"errors"
	"fmt"

	"repro/internal/sample"
	"repro/internal/wire"
)

// MarshalBinary encodes the sketch. Layout: M, Seed, dim, empty, hashes,
// vals (see internal/wire).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.M))
	w.U64(s.params.Seed)
	w.U64(s.dim)
	w.Bool(s.empty)
	w.U64s(s.hashes)
	w.F64s(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m := r.U64()
	seed := r.U64()
	dim := r.U64()
	empty := r.Bool()
	hashes := r.U64s()
	vals := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("minhash: decoding sketch: %w", err)
	}
	p := Params{M: int(m), Seed: seed}
	if err := p.Validate(); err != nil {
		return err
	}
	if empty {
		if len(hashes) != 0 || len(vals) != 0 {
			return errors.New("minhash: empty sketch with samples")
		}
	} else if len(hashes) != int(m) || len(vals) != int(m) {
		return fmt.Errorf("minhash: sketch has %d/%d samples, want %d", len(hashes), len(vals), m)
	}
	if err := sample.Check(hashes, vals, false); err != nil {
		return fmt.Errorf("minhash: %w", err)
	}
	*s = Sketch{params: p, dim: dim, empty: empty, hashes: hashes, vals: vals}
	return nil
}
