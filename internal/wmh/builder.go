package wmh

import (
	"errors"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Builder is the one construction body of the package: New and Shards
// are one-off Builders. It sketches vectors under one fixed Params
// without allocating after warm-up: the per-vector rounding scratch, the
// fill queue, and the per-sample key prefixes are owned by the Builder and
// reused across vectors. SketchInto additionally reuses the destination
// sketch's sample arrays, making the steady-state sketch loop
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
	// per-vector scratch, reused across calls: the rounded blocks of the
	// k-th vector of the current call, and the queue of sketches to fill
	vecs []blocks
	jobs []fillJob
	// dart-variant scratch: the process tables depend on the resolved L,
	// which can differ across dims, so it is rebuilt when dartL changes.
	dart  *hashing.DartProcess
	dartL uint64
}

// blocks is one rounded vector (Algorithm 4): its support indices, integer
// weights and rounded entry values, in index order.
type blocks struct {
	idx     []uint64
	weights []uint64
	bvals   []float64
}

// fillJob is one sketch's share of a fill: the rounded blocks it samples,
// its resolved L, and the sample arrays it fills (the destination sketch's
// own). next and missing are the dart walk's per-vector state.
type fillJob struct {
	blocks
	l             uint64
	hashes, vals  []float64
	next, missing int
}

// NewBuilder validates p and returns a reusable sketch builder for the
// fast active-index construction (or the dart construction when p.Dart).
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{p: p, vr: p.variant()}
	if b.vr != variantDart {
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
	b.sketchInto(dst, 0, v)
	b.fill()
	return nil
}

// SketchAll sketches every vector of vs; out[i] is bitwise Sketch(vs[i]).
// The dart variant fills all vectors of one resolved L from one shared walk
// per round (see fillDart), so the vectors of a table bundle — one key set
// under different weights — pay for one dart walk instead of one each. The
// record process keys its randomness per (sample, block), leaves nothing
// to share, and fills the vectors one by one. The returned sketches share
// one allocation for their headers.
func (b *Builder) SketchAll(vs []vector.Sparse) ([]*Sketch, error) {
	sks := make([]Sketch, len(vs))
	out := make([]*Sketch, len(vs))
	for k, v := range vs {
		out[k] = &sks[k]
		b.sketchInto(out[k], k, v)
	}
	b.fill()
	return out, nil
}

// sketchInto rounds v into the k-th per-vector scratch, writes the sketch
// header into dst, and queues dst's samples for the next fill.
func (b *Builder) sketchInto(dst *Sketch, k int, v vector.Sparse) {
	hdr := b.round(k, v)
	hdr.hashes, hdr.vals = dst.hashes, dst.vals
	*dst = hdr
	b.queue(dst, k, 0, len(b.vecs[k].idx))
}

// round runs Algorithm 4 on v into the k-th per-vector block scratch and
// returns the sample-less header every sketch of v — whole or shard —
// carries.
func (b *Builder) round(k int, v vector.Sparse) Sketch {
	for len(b.vecs) <= k {
		b.vecs = append(b.vecs, blocks{})
	}
	bl := &b.vecs[k]
	l := b.p.effectiveL(v.Dim())
	bl.idx, bl.weights = RoundInto(v, l, bl.idx, bl.weights)
	bl.bvals = roundedValues(bl.bvals, v, bl.idx, bl.weights, l, b.p.QuantizeValues)
	return Sketch{params: b.p, dim: v.Dim(), l: l, norm: v.Norm(), variant: b.vr}
}

// queue sets dst up to be filled by the next fill from the rounded blocks
// [lo, hi) of the k-th vector, reusing dst's sample arrays when they have
// capacity; an empty range makes dst the empty sketch right away.
func (b *Builder) queue(dst *Sketch, k, lo, hi int) {
	if lo >= hi {
		dst.empty, dst.hashes, dst.vals = true, nil, nil
		return
	}
	m := b.p.M
	if cap(dst.hashes) < m {
		dst.hashes = make([]float64, m)
	}
	if cap(dst.vals) < m {
		dst.vals = make([]float64, m)
	}
	dst.hashes, dst.vals = dst.hashes[:m], dst.vals[:m]
	bl := &b.vecs[k]
	b.jobs = append(b.jobs, fillJob{
		blocks: blocks{idx: bl.idx[lo:hi], weights: bl.weights[lo:hi], bvals: bl.bvals[lo:hi]},
		l:      dst.l,
		hashes: dst.hashes,
		vals:   dst.vals,
	})
}

// fill computes the samples of every queued sketch and empties the queue.
// The dart variant walks each run of queued sketches sharing one resolved
// L together (dart.go). The record process fills one sketch at a time and
// splits its samples across workers when it is large enough to pay for the
// goroutines — bitwise identical, because each sample's randomness is
// keyed by its own index, not by shared stream state.
func (b *Builder) fill() {
	jobs := b.jobs
	m := b.p.M
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		switch {
		case b.vr == variantDart:
			for hi < len(jobs) && jobs[hi].l == jobs[lo].l {
				hi++
			}
			if b.dart == nil || b.dartL != jobs[lo].l {
				b.dart, b.dartL = hashing.NewDartProcess(m, jobs[lo].l), jobs[lo].l
			}
			fillDart(jobs[lo:hi], b.p.Seed, b.dart)
		case len(jobs[lo].idx)*m < hashing.FanOutWork:
			j := &jobs[lo]
			fillBlockMajor(j.hashes, j.vals, b.skeys, j.idx, j.weights, j.bvals)
		default:
			j := &jobs[lo]
			hashing.ParallelChunks(m, func(sLo, sHi int) {
				fillBlockMajor(j.hashes[sLo:sHi], j.vals[sLo:sHi], b.skeys[sLo:sHi], j.idx, j.weights, j.bvals)
			})
		}
		lo = hi
	}
	// Drop the references to the filled arrays so a pooled builder does not
	// keep the last call's sketches alive.
	clear(jobs)
	b.jobs = jobs[:0]
}
