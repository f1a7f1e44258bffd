package wmh

import (
	"errors"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Builder is the one construction body of the package: New, NewNaive and
// Shards are one-off Builders. It sketches vectors under one fixed Params
// without allocating after warm-up: the rounding scratch, the
// rounded-value scratch, and the per-sample key prefixes are owned by the
// Builder and reused across vectors. SketchInto additionally reuses the
// destination sketch's sample arrays, making the steady-state sketch loop
// allocation-free.
//
// A Builder is deliberately single-goroutine (that is what makes the
// scratch reuse safe). A record-process fill large enough to pay for the
// goroutines (hashing.FanOutWork) splits its samples across workers by
// itself; to use every core on small vectors, run one Builder per worker
// over a partition of them — what ipsketch.Sketcher.SketchAll does.
type Builder struct {
	p     Params
	vr    variant
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

// NewBuilder validates p and returns a reusable sketch builder for the
// fast active-index construction (or the dart construction when p.Dart).
func NewBuilder(p Params) (*Builder, error) {
	return newBuilder(p, p.variant())
}

func newBuilder(p Params, vr variant) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{p: p, vr: vr}
	if vr != variantDart {
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
	hdr := b.round(v)
	hdr.hashes, hdr.vals = dst.hashes, dst.vals
	*dst = hdr
	b.fill(dst, 0, len(b.idx))
	return nil
}

// round runs Algorithm 4 on v into the builder's block scratch and returns
// the sample-less header every sketch of v — whole or shard — carries.
func (b *Builder) round(v vector.Sparse) Sketch {
	l := b.p.effectiveL(v.Dim())
	b.idx, b.weights = RoundInto(v, l, b.idx, b.weights)
	b.bvals = roundedValues(b.bvals, v, b.idx, b.weights, l, b.p.QuantizeValues)
	return Sketch{params: b.p, dim: v.Dim(), l: l, norm: v.Norm(), variant: b.vr}
}

// fill computes dst's samples over the rounded blocks [lo, hi) of the last
// round call, reusing dst's sample arrays when they have capacity; an
// empty range makes dst the empty sketch. The record-process variants
// split their samples across workers when the range is large enough to
// pay for the goroutines — bitwise identical, because each sample's
// randomness is keyed by its own index, not by shared stream state. The
// dart variant stays one pass (see dart.go).
func (b *Builder) fill(dst *Sketch, lo, hi int) {
	m := b.p.M
	if lo >= hi {
		dst.empty, dst.hashes, dst.vals = true, nil, nil
		return
	}
	if cap(dst.hashes) < m {
		dst.hashes = make([]float64, m)
	}
	if cap(dst.vals) < m {
		dst.vals = make([]float64, m)
	}
	dst.hashes, dst.vals = dst.hashes[:m], dst.vals[:m]
	idx, weights, bvals := b.idx[lo:hi], b.weights[lo:hi], b.bvals[lo:hi]
	switch {
	case b.vr == variantDart:
		if b.dart == nil || b.dartL != dst.l {
			b.dart, b.dartL = hashing.NewDartProcess(m, dst.l), dst.l
		}
		fillDart(dst.hashes, dst.vals, b.p.Seed, idx, weights, bvals, b.dart)
	case (hi-lo)*m < hashing.FanOutWork:
		fillBlockMajor(dst.hashes, dst.vals, b.skeys, idx, weights, bvals, b.vr)
	default:
		hashing.ParallelChunks(m, func(sLo, sHi int) {
			fillBlockMajor(dst.hashes[sLo:sHi], dst.vals[sLo:sHi], b.skeys[sLo:sHi], idx, weights, bvals, b.vr)
		})
	}
}
