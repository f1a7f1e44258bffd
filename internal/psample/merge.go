package psample

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sample"
)

// This file makes the coordinated samplers mergeable: the shared index
// hash depends only on (seed, index), so two sketches of vectors with
// disjoint supports carry samples of one union vector, and everything the
// union's sketch would have stored is recomputable from the retained
// (index, value) pairs plus the per-sketch aggregates.
//
//   - Threshold sampling stores inclusion decisions h(j) < K·a[j]²/‖a‖².
//     The union's squared norm is the sum of the shards' (minus observed
//     overlap), which can only shrink inclusion probabilities, so the
//     union's sample is a sub-sample of the union of the retained sets:
//     Merge re-filters under the reconciled norm and is exact for disjoint
//     shards.
//   - Priority sampling ranks h(j)/a[j]² independently of the norm. The
//     union's threshold τ is min(τ_a, τ_b, the (K+1)-st smallest rank
//     among the union of retained samples): every one of the union's K
//     smallest ranks is retained by its shard (fewer than K+1 union ranks
//     sit below it), and the (K+1)-st is either retained or is some
//     shard's own (K+1)-st — which is that shard's stored τ. Merge is
//     therefore exact, threshold included.
//
// Both modes treat a shared retained index as one entry of the union
// vector (union semantics); shards that disagree on a shared value are
// rejected rather than silently reconciled. The support and squared-norm
// bookkeeping subtracts observed overlap, so like KMV's merged support
// size they are exact for disjoint shards and a safe upper bound under
// unobserved overlap.

// Merge combines two sketches built with identical parameters into the
// sketch of the vectors' union. For disjoint supports the result is
// exactly the sketch New would build on a+b (bitwise, when the shards'
// squared norms add without rounding). Inputs that cannot be samples of
// one union vector (conflicting shared entries) are rejected.
func Merge(a, b *Sketch) (*Sketch, error) {
	if err := Compatible(a, b); err != nil {
		return nil, err
	}
	if a.params.Mode == Threshold {
		return mergeThreshold(a, b)
	}
	return mergePriority(a, b)
}

// unionEntry is one candidate of the merged sample.
type unionEntry struct {
	idx  uint64
	val  float64
	rank float64 // priority mode only
}

// joinRetained merge-joins the two sorted retained lists, deduplicating
// shared indices and accumulating the observed overlap. A shared index
// with conflicting values cannot come from samples of one union vector
// and is rejected — silently preferring either value would corrupt the
// reconciled norm and bias every downstream Horvitz–Thompson estimate.
// It returns the union candidates in ascending index order, the shared
// count, and the union's squared norm ‖a‖² + ‖b‖² − Σshared², which no
// candidate's square exceeds when the inputs sample one union vector (the
// decoder's bound).
func joinRetained(a, b *Sketch) (union []unionEntry, shared int, normSq float64, err error) {
	union = make([]unionEntry, 0, len(a.idx)+len(b.idx))
	sharedSq := 0.0
	i, j := 0, 0
	for i < len(a.idx) || j < len(b.idx) {
		switch {
		case j >= len(b.idx) || (i < len(a.idx) && a.idx[i] < b.idx[j]):
			union = append(union, unionEntry{idx: a.idx[i], val: a.vals[i]})
			i++
		case i >= len(a.idx) || b.idx[j] < a.idx[i]:
			union = append(union, unionEntry{idx: b.idx[j], val: b.vals[j]})
			j++
		default: // shared index: one entry of the union vector
			if a.vals[i] != b.vals[j] {
				return nil, 0, 0, fmt.Errorf("psample: shared index %d carries conflicting values %v vs %v; inputs are not samples of one union vector", a.idx[i], a.vals[i], b.vals[j])
			}
			union = append(union, unionEntry{idx: a.idx[i], val: a.vals[i]})
			shared++
			sharedSq += a.vals[i] * a.vals[i]
			i++
			j++
		}
	}
	normSq = a.normSq + b.normSq - sharedSq
	for _, e := range union {
		if e.val*e.val > normSq {
			return nil, 0, 0, fmt.Errorf("psample: value %v exceeds the merged squared norm %v; inputs are not samples of one union vector", e.val, normSq)
		}
	}
	return union, shared, normSq, nil
}

func mergeThreshold(a, b *Sketch) (*Sketch, error) {
	union, shared, normSq, err := joinRetained(a, b)
	if err != nil {
		return nil, err
	}
	out := &Sketch{
		params: a.params, dim: a.dim,
		nnz: sample.UnionSupport(a.nnz, b.nnz, shared, a.dim), normSq: normSq, tau: math.Inf(1),
	}
	if len(union) == 0 {
		return out, nil
	}
	if !(normSq > 0) || math.IsInf(normSq, 1) {
		return nil, errors.New("psample: merged squared norm is not positive finite; inputs are not samples of one union vector")
	}
	// Re-filter under the reconciled norm with the construction's exact
	// comparison (see thresholdSample): probabilities only shrink, so the
	// union's own sample is a subset of the candidates.
	out.idx = make([]uint64, 0, len(union))
	out.vals = make([]float64, 0, len(union))
	key := indexChainKey(a.params.Seed)
	kOverNormSq := float64(a.params.K) / normSq
	for _, e := range union {
		p := (e.val * e.val) * kOverNormSq
		if hashing.UnitFromBits(hashing.Extend(key, e.idx)) < p {
			out.idx = append(out.idx, e.idx)
			out.vals = append(out.vals, e.val)
		}
	}
	return out, nil
}

func mergePriority(a, b *Sketch) (*Sketch, error) {
	union, shared, normSq, err := joinRetained(a, b)
	if err != nil {
		return nil, err
	}
	k := a.params.K
	key := indexChainKey(a.params.Seed)
	for i := range union {
		w := union[i].val * union[i].val
		if w == 0 {
			union[i].rank = math.Inf(1) // zero weight never enters a sample
			continue
		}
		union[i].rank = hashing.UnitFromBits(hashing.Extend(key, union[i].idx)) / w
	}
	tau := math.Min(a.tau, b.tau)
	if len(union) > k {
		ranks := make([]float64, len(union))
		for i := range union {
			ranks[i] = union[i].rank
		}
		sort.Float64s(ranks)
		if ranks[k] < tau {
			tau = ranks[k]
		}
	}
	out := &Sketch{
		params: a.params, dim: a.dim,
		nnz: sample.UnionSupport(a.nnz, b.nnz, shared, a.dim), normSq: normSq, tau: tau,
	}
	if out.normSq < 0 || math.IsInf(out.normSq, 1) {
		return nil, errors.New("psample: merged squared norm is not finite non-negative; inputs are not samples of one union vector")
	}
	retain := len(union)
	if retain > k {
		retain = k
	}
	out.idx = make([]uint64, 0, retain)
	out.vals = make([]float64, 0, retain)
	for _, e := range union {
		if e.rank < tau { // strict: the τ-achieving entry is the (K+1)-st
			out.idx = append(out.idx, e.idx)
			out.vals = append(out.vals, e.val)
		}
	}
	// A finite threshold promises exactly K retained samples drawn from a
	// support larger than K (the invariant the decoder enforces); honest
	// shard sketches always satisfy it, so a violation means the inputs
	// were not priority samples of one union vector.
	if !math.IsInf(tau, 1) && (len(out.idx) != k || out.nnz <= k) {
		return nil, errors.New("psample: merge produced an inconsistent priority sample; inputs are not samples of one union vector")
	}
	return out, nil
}
