package wmh

import (
	"errors"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Builder sketches many vectors under one fixed Params without allocating
// after warm-up: the rounding scratch, the rounded-value scratch, and the
// per-sample key prefixes are owned by the Builder and reused across
// vectors. SketchInto additionally reuses the destination sketch's sample
// arrays, making the steady-state sketch loop allocation-free.
//
// A Builder is deliberately single-goroutine (that is what makes the
// scratch reuse safe); to use every core, run one Builder per worker over a
// partition of the vectors — exactly what ipsketch.Sketcher.SketchAll does.
// Sketches produced by a Builder are bitwise identical to those produced by
// New with the same Params.
type Builder struct {
	p     Params
	skeys []uint64 // per-sample Mix-chain prefixes, fixed for the lifetime
	// per-vector scratch, reused across calls
	idx     []uint64
	weights []uint64
	bvals   []float64
	// dart-variant scratch: the process tables depend on the resolved L,
	// which can differ across dims, so it is rebuilt when dartL changes.
	dart  *hashing.DartProcess
	dartL uint64
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{p: p}
	if !p.Dart {
		b.skeys = sampleKeys(nil, p.Seed, p.M)
	}
	return b, nil
}

// Params returns the builder's construction parameters.
func (b *Builder) Params() Params { return b.p }

// Sketch sketches v, allocating a fresh Sketch (the scratch is still
// reused, so this allocates only the returned sketch and its two sample
// arrays).
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	s := new(Sketch)
	if err := b.SketchInto(s, v); err != nil {
		return nil, err
	}
	return s, nil
}

// SketchInto sketches v into dst, reusing dst's sample arrays when they
// have capacity. After the first call with a given dst, repeated calls
// allocate nothing. dst must not be in use by other goroutines and is
// overwritten entirely.
func (b *Builder) SketchInto(dst *Sketch, v vector.Sparse) error {
	if dst == nil {
		return errors.New("wmh: nil destination sketch")
	}
	vr := b.p.variant()
	l := b.p.effectiveL(v.Dim())
	hashes, vals := dst.hashes[:0], dst.vals[:0]
	*dst = Sketch{params: b.p, dim: v.Dim(), l: l, norm: v.Norm(), variant: vr}
	if v.IsEmpty() {
		dst.empty = true
		return nil
	}
	b.idx, b.weights = RoundInto(v, l, b.idx, b.weights)
	b.bvals = roundedValues(b.bvals, v, b.idx, b.weights, l, b.p.QuantizeValues)
	m := b.p.M
	if cap(hashes) < m {
		hashes = make([]float64, m)
	}
	if cap(vals) < m {
		vals = make([]float64, m)
	}
	dst.hashes, dst.vals = hashes[:m], vals[:m]
	if vr == variantDart {
		if b.dart == nil || b.dartL != l {
			b.dart = newDartProcess(m, l)
			b.dartL = l
		}
		fillDart(dst.hashes, dst.vals, b.p.Seed, b.idx, b.weights, b.bvals, b.dart)
		return nil
	}
	fillBlockMajor(dst.hashes, dst.vals, b.skeys, b.idx, b.weights, b.bvals, vr)
	return nil
}
