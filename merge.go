package ipsketch

import (
	"errors"
	"fmt"
)

// This file is the public merge surface. Coordinated sketches are
// mergeable — a prefix-minimum over a support union is the minimum of the
// per-shard minima, and linear sketches add — which is what lets
// per-partition sketches of a distributed table be rolled up without
// touching the data again. Every method that can merge has a merge field
// in its backend descriptor; per-family semantics:
//
//	MH, KMV        union-min over the coordinate-keyed hashes: exact for
//	               disjoint supports, union semantics for shared indices
//	               (shards are expected to agree on shared values).
//	PS, TS         union of the coordinated samples with exact threshold
//	               reconciliation (PS re-derives the union's rank
//	               threshold; TS re-filters under the reconciled norm).
//	WMH            union-min, but the construction normalizes by the
//	               vector's norm, so partials must be built against the
//	               parent's normalization via SketchShards; merging
//	               independently normalized sketches fails loudly.
//	JL, CS         row-wise addition: S(a)+S(b) = S(a+b) exactly, for any
//	               overlap.
//	SimHash        not mergeable (sign bits are not additive).
//
// DESIGN.md §10 derives the exactness claims.

// ErrNotMergeable reports that a method's sketches cannot be merged.
var ErrNotMergeable = errors.New("ipsketch: method does not support merging")

// Mergeable reports whether the method's sketches support Merge.
func (m Method) Mergeable() bool {
	be, err := backendFor(m)
	return err == nil && be.merge != nil
}

// Merge combines two sketches of the same configuration into the sketch
// of the vectors' union (sampling families) or sum (linear families):
// for disjoint supports the two coincide and the result is exactly what
// sketching the combined vector would produce. It fails for methods
// without merge support (SimHash), for incompatible inputs (method, size,
// seed, or variant mismatches — the same checks Estimate runs), and for
// inputs that cannot be partials of one vector (WMH sketches with
// different stored norms). Neither input is modified.
func (sk *Sketch) Merge(other *Sketch) (*Sketch, error) {
	be, err := pairBackend(sk, other)
	if err != nil {
		return nil, err
	}
	if be.merge == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotMergeable, sk.method)
	}
	if err := be.compatible(sk.payload, other.payload); err != nil {
		return nil, err
	}
	p, err := be.merge(sk.payload, other.payload)
	if err != nil {
		return nil, err
	}
	return &Sketch{method: sk.method, payload: p}, nil
}

// MergeAll folds a batch of sketches into one with Merge, left to right
// (shard order matters only for measure-zero ties). A single-element
// batch returns its sketch unmodified.
func MergeAll(sks []*Sketch) (*Sketch, error) {
	if len(sks) == 0 {
		return nil, errors.New("ipsketch: MergeAll needs at least one sketch")
	}
	out := sks[0]
	if out == nil {
		return nil, errMergeNilSketch(0)
	}
	for i, sk := range sks[1:] {
		if sk == nil {
			return nil, errMergeNilSketch(i + 1)
		}
		var err error
		if out, err = out.Merge(sk); err != nil {
			return nil, fmt.Errorf("ipsketch: merging sketch %d: %w", i+1, err)
		}
	}
	return out, nil
}

func errMergeNilSketch(i int) error {
	return fmt.Errorf("ipsketch: MergeAll: sketch %d is nil", i)
}
