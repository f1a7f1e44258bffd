package wmh

import (
	"repro/internal/hashing"
	"repro/internal/vector"
)

// Builder is the one construction body of the package: New and Shards
// are one-off Builders. It sketches vectors under one fixed Params,
// owning the per-vector rounding scratch, the fill queue, and the dart
// process and reusing them across vectors, so a warm Sketch allocates
// only the sketch and its two sample arrays.
//
// A Builder is deliberately single-goroutine (that is what makes the
// scratch reuse safe). To use every core, run one Builder per worker over
// a partition of the vectors — what ipsketch.Sketcher.SketchAll does.
type Builder struct {
	p Params
	// per-vector scratch, reused across calls: the rounded blocks of the
	// k-th vector of the current call, and the queue of sketches to fill
	vecs []blocks
	jobs []fillJob
	// the dart process: its tables depend on the resolved L, which can
	// differ across dims, so it is rebuilt when dartL changes.
	dart  *hashing.DartProcess
	dartL uint64
	// throws counts the blocks the dart fills have thrown; tests pin the
	// shared walk with it.
	throws int
}

// blocks is one rounded vector (Algorithm 4): its support indices, integer
// weights and rounded entry values, in index order.
type blocks struct {
	idx     []uint64
	weights []uint64
	bvals   []float64
}

// fillJob is one sketch's share of a fill: the rounded blocks it samples,
// its resolved L, and the sample arrays it fills (the queued sketch's
// own; hashes holds dart positions until the fill converts them). next
// and missing are the dart walk's per-vector state.
type fillJob struct {
	blocks
	l             uint64
	hashes, vals  []float64
	next, missing int
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Builder{p: p}, nil
}

// Sketch sketches v into a fresh Sketch.
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	s := b.round(0, v)
	b.queue(&s, 0, 0, len(b.vecs[0].idx))
	b.fill()
	return &s, nil
}

// SketchAll sketches every vector of vs; out[i] is bitwise Sketch(vs[i]).
// It fills all vectors of one resolved L from one shared walk per round
// (see fillDart), so the vectors of a table bundle — one key set under
// different weights — pay for one dart walk instead of one each. The
// returned sketches share one allocation for their headers.
func (b *Builder) SketchAll(vs []vector.Sparse) ([]*Sketch, error) {
	sks := make([]Sketch, len(vs))
	out := make([]*Sketch, len(vs))
	for k, v := range vs {
		sks[k] = b.round(k, v)
		b.queue(&sks[k], k, 0, len(b.vecs[k].idx))
		out[k] = &sks[k]
	}
	b.fill()
	return out, nil
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
	return Sketch{params: b.p, dim: v.Dim(), l: l, norm: v.Norm()}
}

// queue gives dst fresh sample arrays for the next fill to fill from the
// rounded blocks [lo, hi) of the k-th vector; an empty range makes dst
// the empty sketch right away.
func (b *Builder) queue(dst *Sketch, k, lo, hi int) {
	if lo >= hi {
		dst.empty = true
		return
	}
	dst.hashes, dst.vals = make([]float64, b.p.M), make([]float64, b.p.M)
	bl := &b.vecs[k]
	b.jobs = append(b.jobs, fillJob{
		blocks: blocks{idx: bl.idx[lo:hi], weights: bl.weights[lo:hi], bvals: bl.bvals[lo:hi]},
		l:      dst.l,
		hashes: dst.hashes,
		vals:   dst.vals,
	})
}

// fill computes the samples of every queued sketch and empties the queue,
// walking each run of queued sketches sharing one resolved L together
// (dart.go).
func (b *Builder) fill() {
	jobs := b.jobs
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].l == jobs[lo].l {
			hi++
		}
		if b.dart == nil || b.dartL != jobs[lo].l {
			b.dart, b.dartL = hashing.NewDartProcess(b.p.M, jobs[lo].l), jobs[lo].l
		}
		b.throws += fillDart(jobs[lo:hi], b.p.Seed, b.dart)
		lo = hi
	}
	// Drop the references to the filled arrays so a pooled builder does not
	// keep the last call's sketches alive.
	clear(jobs)
	b.jobs = jobs[:0]
}
