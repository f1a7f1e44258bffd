package linear

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// MarshalBinary encodes the JL sketch. Layout: M, Seed, dim, rows.
func (s *JLSketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.M))
	w.U64(s.params.Seed)
	w.U64(s.dim)
	w.F64s(s.rows)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *JLSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m := r.U64()
	seed := r.U64()
	dim := r.U64()
	rows := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("linear: decoding JL sketch: %w", err)
	}
	p := JLParams{M: int(m), Seed: seed}
	if err := p.Validate(); err != nil {
		return err
	}
	if uint64(len(rows)) != m {
		return fmt.Errorf("linear: JL sketch has %d rows, want %d", len(rows), m)
	}
	*s = JLSketch{params: p, dim: dim, rows: rows}
	return nil
}

// MarshalBinary encodes the CountSketch. Layout: Buckets, Reps, Seed, dim,
// rows flattened row-major.
func (s *CSSketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.Buckets))
	w.U64(uint64(s.params.Reps))
	w.U64(s.params.Seed)
	w.U64(s.dim)
	flat := make([]float64, 0, s.params.Reps*s.params.Buckets)
	for _, row := range s.rows {
		flat = append(flat, row...)
	}
	w.F64s(flat)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *CSSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	buckets := r.U64()
	reps := r.U64()
	seed := r.U64()
	dim := r.U64()
	flat := r.F64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("linear: decoding CountSketch: %w", err)
	}
	p := CSParams{Buckets: int(buckets), Reps: int(reps), Seed: seed}
	if err := p.Validate(); err != nil {
		return err
	}
	// Validate keeps both counts in [1, MaxInt]; the division refuses a
	// product that would overflow int.
	if buckets > math.MaxInt/reps || uint64(len(flat)) != buckets*reps {
		return fmt.Errorf("linear: CountSketch has %d counters, want %d×%d", len(flat), reps, buckets)
	}
	rows := make([][]float64, reps)
	for i := range rows {
		rows[i] = flat[uint64(i)*buckets : uint64(i+1)*buckets]
	}
	*s = CSSketch{params: p, dim: dim, rows: rows}
	return nil
}

// MarshalBinary encodes the SimHash sketch. Layout: Bits, Seed, dim, norm,
// empty, words.
func (s *SimHashSketch) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U64(uint64(s.params.Bits))
	w.U64(s.params.Seed)
	w.U64(s.dim)
	w.F64(s.norm)
	w.Bool(s.empty)
	w.U64s(s.words)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes into s, validating structural invariants.
func (s *SimHashSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	bits := r.U64()
	seed := r.U64()
	dim := r.U64()
	norm := r.F64()
	empty := r.Bool()
	words := r.U64s()
	if err := r.Close(); err != nil {
		return fmt.Errorf("linear: decoding SimHash sketch: %w", err)
	}
	p := SimHashParams{Bits: int(bits), Seed: seed}
	if err := p.Validate(); err != nil {
		return err
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) || norm < 0 {
		return fmt.Errorf("linear: invalid SimHash norm %v", norm)
	}
	if wantWords := bits/64 + min(bits%64, 1); uint64(len(words)) != wantWords {
		return fmt.Errorf("linear: SimHash has %d words, want %d", len(words), wantWords)
	}
	*s = SimHashSketch{params: p, dim: dim, norm: norm, empty: empty, words: words}
	return nil
}
