package kmv

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/wire"
)

// MarshalBinary encodes the sketch. Layout: K, Seed, dim, nnz, hashes,
// vals.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.K))
	w.U64(s.params.Seed)
	w.U64(s.dim)
	w.U64(uint64(s.nnz))
	w.U64s(s.hashes)
	w.F64s(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	k := r.U64()
	seed := r.U64()
	dim := r.U64()
	nnz := r.U64()
	hashes := r.U64s()
	vals := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("kmv: decoding sketch: %w", err)
	}
	p := Params{K: int(k), Seed: seed}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := sample.Check(hashes, vals, true); err != nil {
		return fmt.Errorf("kmv: %w", err)
	}
	n, err := sample.Support(nnz, dim)
	if err != nil {
		return fmt.Errorf("kmv: %w", err)
	}
	if want := min(nnz, k); uint64(len(hashes)) != want {
		return fmt.Errorf("kmv: sketch has %d entries, want %d", len(hashes), want)
	}
	*s = Sketch{params: p, dim: dim, nnz: n, hashes: hashes, vals: vals}
	return nil
}
