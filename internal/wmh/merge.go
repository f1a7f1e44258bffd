package wmh

import (
	"errors"
	"fmt"

	"repro/internal/sample"
	"repro/internal/vector"
)

// This file makes WMH sketches mergeable. The per-sample minima compose:
// for a fixed normalization, the per-sample minimum over a union of
// expanded blocks equals the minimum of the per-subset minima, by
// superposition of the per-block dart streams (internal/hashing/dart.go). So the sketch of a vector can be assembled
// from sketches of disjoint subsets of its rounded blocks, bitwise.
//
// The one thing that does NOT compose is the normalization: Algorithm 4's
// block weights are w_j = ⌊L·a[j]²/‖a‖²⌋ (plus the argmax absorbing the
// global deficit), so a sub-vector sketched on its own is rounded against
// its own, smaller norm and its blocks land in different slots than the
// parent's. Shards therefore come from Shards, which rounds the parent
// once and partitions the resulting blocks; Merge refuses inputs whose
// stored norms differ, which is exactly the loud failure mode for partials
// that were not built against one shared normalization.

// Merge computes the union-min merge of two sketches built with identical
// parameters against the same normalization (equal stored norms): per
// sample, the smaller minimum (and its block value) wins.
// For shards of one vector (see Shards) the merge is bitwise identical to
// sketching the vector directly; more generally it is the exact sketch of
// the union of the two inputs' expanded block sets.
//
// An empty input (a shard with no blocks, or the sketch of an empty
// vector) merges as the identity.
func Merge(a, b *Sketch) (*Sketch, error) {
	if err := Compatible(a, b); err != nil {
		return nil, err
	}
	if a.empty {
		return cloneSketch(b), nil
	}
	if b.empty {
		return cloneSketch(a), nil
	}
	if a.norm != b.norm {
		return nil, fmt.Errorf("wmh: cannot merge sketches with stored norms %v vs %v: WMH shards must share the parent vector's normalization (see Shards)", a.norm, b.norm)
	}
	out := &Sketch{params: a.params, dim: a.dim, l: a.l, norm: a.norm}
	// Ties keep a's sample: when shards are merged in block order, the
	// earlier block wins a tie, as in the construction.
	out.hashes, out.vals = sample.MinMerge(a.hashes, a.vals, b.hashes, b.vals)
	return out, nil
}

func cloneSketch(s *Sketch) *Sketch {
	out := *s
	out.hashes = append([]float64(nil), s.hashes...)
	out.vals = append([]float64(nil), s.vals...)
	return &out
}

// Shards sketches v as n mergeable partial sketches: the vector is rounded
// once (under its own norm, exactly as New rounds it) and the rounded
// blocks are partitioned into n contiguous ranges, each filled by the same
// Builder. Folding the partials with Merge in order reproduces
// New(v, p) bitwise, because the per-block dart streams superpose. Shards beyond the block count come back empty (the
// merge identity).
func Shards(v vector.Sparse, p Params, n int) ([]*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("wmh: shard count must be positive")
	}
	hdr := b.round(0, v)
	nb := len(b.vecs[0].idx)
	chunk := (nb + n - 1) / n
	out := make([]*Sketch, n)
	for w := range out {
		s := hdr
		lo := min(w*chunk, nb)
		b.queue(&s, 0, lo, min(lo+chunk, nb))
		out[w] = &s
	}
	b.fill()
	return out, nil
}
