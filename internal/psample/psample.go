// Package psample implements the coordinated weighted sampling sketches of
// the follow-up paper "Sampling Methods for Inner Product Sketching"
// (Daliri, Freire, Musco, Santos; arXiv:2309.16157): priority sampling and
// threshold sampling, which match or beat the WMH sketch of the source
// paper at a fraction of the sketching cost.
//
// Both sketches share one uniform hash h : [n] → (0,1) derived from the
// seed, so independently sketched vectors sample *coordinated* index sets —
// the property that makes the intersection of two samples observable.
//
// # Threshold sampling
//
// Index j of vector a is stored iff h(j) < p_a(j) where
//
//	p_a(j) = min(1, k·a[j]²/‖a‖²)
//
// so the sample has expected size ≤ k, concentrated around it. An index is
// in both samples iff h(j) < min(p_a(j), p_b(j)), which yields the unbiased
// Horvitz–Thompson estimate
//
//	Σ_{j ∈ S_a∩S_b} a[j]·b[j] / min(p_a(j), p_b(j)).
//
// # Priority sampling
//
// Index j gets rank R(j) = h(j)/a[j]²; the sketch keeps the k smallest
// ranks plus the threshold τ_a = (k+1)-st smallest rank (+Inf when the
// support fits entirely). Conditioned on the thresholds, index j is in both
// samples iff h(j) < min(a[j]²·τ_a, b[j]²·τ_b), giving the estimate
//
//	Σ_{j ∈ S_a∩S_b} a[j]·b[j] / min(1, a[j]²·τ_a, b[j]²·τ_b),
//
// unbiased by the Duffield–Lund–Thorup conditioning argument (Theorem 4.2
// of the follow-up paper). Priority sampling's sample size is exactly
// min(k, |A|); threshold sampling's is random but needs no threshold word.
//
// Both estimators carry error O(‖a_I‖‖b_I‖/√k) where I is the support
// intersection — never worse than the source paper's WMH bound
// max(‖a_I‖‖b‖, ‖a‖‖b_I‖), and smaller whenever either vector has mass
// outside the intersection.
//
// Both modes share one estimator loop, mergeJoin: a merge-join over the
// index-sorted samples that divides each matched product by the smaller
// of the two inclusion probabilities, each computed from its sketch's
// factor word (K/‖v‖² or τ). Score runs it on the query and one stored
// sample (aux word the factor); Estimate and the packed index scan
// (sample.Scan) both call Score, so their results are bit-identical.
//
// Entries whose squared value underflows to zero carry zero sampling
// weight and are never stored; their contribution to any inner product is
// below 1e-162·‖b‖_∞ and is deliberately dropped rather than estimated
// with unbounded variance.
package psample

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Mode selects the sampling scheme.
type Mode uint8

const (
	// Priority keeps the exactly-k smallest ranks plus a threshold.
	Priority Mode = iota
	// Threshold keeps every index passing its inclusion probability.
	Threshold
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Priority:
		return "priority"
	case Threshold:
		return "threshold"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Params configures sketch construction. Two sketches are comparable only
// if built with identical Params.
type Params struct {
	// K is the sample size: exact for Priority, expected for Threshold.
	K int
	// Seed derives the shared index hash.
	Seed uint64
	// Mode selects priority or threshold sampling.
	Mode Mode
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K <= 0 {
		return errors.New("psample: sample size K must be positive")
	}
	if p.Mode != Priority && p.Mode != Threshold {
		return fmt.Errorf("psample: unknown mode %d", int(p.Mode))
	}
	return nil
}

// Sketch holds the coordinated sample: stored indices (ascending) with the
// vector values at those indices, the squared norm (threshold sampling
// recomputes inclusion probabilities from it), and the rank threshold τ
// (priority sampling only; +Inf when the whole support was retained).
type Sketch struct {
	params Params
	dim    uint64
	nnz    int
	normSq float64
	tau    float64
	idx    []uint64
	vals   []float64
}

// New sketches the vector v.
func New(v vector.Sparse, p Params) (*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return b.Sketch(v)
}

// rankEntry is one candidate in the priority-sampling bounded heap.
type rankEntry struct {
	rank float64
	idx  uint64
	val  float64
}

// Builder sketches many vectors under one fixed Params, reusing the
// bounded-heap and sample scratch across vectors, so a warm Sketch
// allocates only the sketch and its two sample arrays. A Builder is
// single-goroutine; run one per worker to use every core. Its sketches
// are identical to New's.
type Builder struct {
	p    Params
	key  uint64      // index-hash chain prefix, fixed for the lifetime
	heap []rankEntry // priority scratch: max-heap of the k+1 smallest ranks
	// sample scratch: the kept pairs, copied out at exact size
	idx  []uint64
	vals []float64
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Absorb the fixed words into a chain prefix so the per-index hash is
	// one Extend step. Both modes share the hash stream: it depends only on
	// (seed, index), never on the mode or the weights.
	return &Builder{p: p, key: indexChainKey(p.Seed)}, nil
}

// indexChainKey is the per-index hash chain prefix shared by construction
// and merge: the same (seed, index) always maps to the same uniform hash,
// which is what lets Merge re-derive ranks and inclusion thresholds from
// a sketch's stored samples alone.
func indexChainKey(seed uint64) uint64 {
	return hashing.Mix(hashing.Mix(seed, 0x7073616d /* "psam" */))
}

// Sketch sketches v into a fresh Sketch.
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	s := &Sketch{
		params: b.p, dim: v.Dim(), nnz: v.NNZ(),
		normSq: v.SquaredNorm(), tau: math.Inf(1),
	}
	if math.IsInf(s.normSq, 1) {
		// Entries near 1e154 square past the float64 range; threshold
		// probabilities would all collapse to zero and priority ranks to
		// zero — silent garbage. Refuse loudly instead (no other sketch in
		// the module stores squared magnitudes this large either).
		return nil, errors.New("psample: vector squared norm overflows float64")
	}
	if b.p.Mode == Threshold {
		b.idx, b.vals = b.thresholdSample(b.idx[:0], b.vals[:0], v, s.normSq)
	} else {
		b.idx, b.vals, s.tau = b.prioritySample(b.idx[:0], b.vals[:0], v)
	}
	s.idx, s.vals = append([]uint64(nil), b.idx...), append([]float64(nil), b.vals...)
	return s, nil
}

// unitHash maps a support index to the shared uniform (0,1) hash.
func (b *Builder) unitHash(idx uint64) float64 {
	return hashing.UnitFromBits(hashing.Extend(b.key, idx))
}

// thresholdSample walks the support once, keeping index j iff
// h(j) < min(1, K·w_j/‖v‖²). The support is sorted, so the sample is too.
// normSq is the caller's already-computed v.SquaredNorm().
func (b *Builder) thresholdSample(idx []uint64, vals []float64, v vector.Sparse, normSq float64) ([]uint64, []float64) {
	kOverNormSq := float64(b.p.K) / normSq
	nnz := v.NNZ()
	for e := 0; e < nnz; e++ {
		j, val := v.Entry(e)
		p := (val * val) * kOverNormSq // min(1, ·) is implicit: h < 1 always
		if b.unitHash(j) < p {
			idx = append(idx, j)
			vals = append(vals, val)
		}
	}
	return idx, vals
}

// prioritySample keeps the k+1 smallest ranks h(j)/w_j in a bounded
// max-heap, returns the k smallest sorted by index, and the (k+1)-st rank
// as τ (+Inf when the support has at most k usable entries).
func (b *Builder) prioritySample(idx []uint64, vals []float64, v vector.Sparse) ([]uint64, []float64, float64) {
	k := b.p.K
	h := b.heap[:0]
	if cap(h) < k+1 {
		// Full capacity up front: sizing to the current support would
		// reallocate on every vector larger than all previous ones.
		h = make([]rankEntry, 0, k+1)
	}
	nnz := v.NNZ()
	for e := 0; e < nnz; e++ {
		j, val := v.Entry(e)
		w := val * val
		if w == 0 {
			continue // underflowed weight: zero inclusion probability
		}
		rank := b.unitHash(j) / w
		if len(h) <= k {
			h = append(h, rankEntry{rank: rank, idx: j, val: val})
			siftUp(h, len(h)-1)
		} else if rank < h[0].rank {
			h[0] = rankEntry{rank: rank, idx: j, val: val}
			siftDown(h, 0)
		}
	}
	b.heap = h

	tau := math.Inf(1)
	n := len(h)
	if n > k {
		// The heap root is the (k+1)-st smallest rank: the threshold.
		tau = h[0].rank
		h[0] = h[n-1]
		n--
		siftDown(h[:n], 0)
	}
	// The retained k entries are stored sorted by index for merge joins.
	sortByIndex(h[:n])
	for _, e := range h[:n] {
		idx = append(idx, e.idx)
		vals = append(vals, e.val)
	}
	return idx, vals, tau
}

// siftUp restores the max-heap-by-rank property after appending at i.
func siftUp(h []rankEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].rank >= h[i].rank {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap-by-rank property after replacing i.
func siftDown(h []rankEntry, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r].rank > h[l].rank {
			big = r
		}
		if h[i].rank >= h[big].rank {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// sortByIndex sorts the retained entries ascending by index (insertion
// sort on the small in-place slice keeps the warm path allocation-free;
// sort.Slice would allocate its closure).
func sortByIndex(h []rankEntry) {
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for j >= 0 && h[j].idx > e.idx {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = e
	}
}

// Params returns the construction parameters.
func (s *Sketch) Params() Params { return s.params }

// Dim returns the dimension of the sketched vector.
func (s *Sketch) Dim() uint64 { return s.dim }

// Len returns the number of stored samples.
func (s *Sketch) Len() int { return len(s.idx) }

// IsEmpty reports whether the sketch stored no samples.
func (s *Sketch) IsEmpty() bool { return len(s.idx) == 0 }

// SawAll reports whether every usable support entry was retained, in which
// case estimates against another SawAll sketch are exact sums.
func (s *Sketch) SawAll() bool {
	if s.params.Mode == Priority {
		return math.IsInf(s.tau, 1)
	}
	return false
}

// StorageWords returns the sketch size in 64-bit words under the paper's
// accounting: 1.5 words per budgeted sample (a 32-bit index hash plus a
// 64-bit value) plus one word for the norm (threshold) or threshold rank
// (priority). Like the other sampling sketches, the budgeted capacity K is
// charged even when fewer samples are present.
func (s *Sketch) StorageWords() float64 { return 1.5*float64(s.params.K) + 1 }

// Compatible reports why two sketches cannot be compared, or nil.
func Compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("psample: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("psample: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	return nil
}

// Estimate returns the Horvitz–Thompson inner-product estimate ⟨a, b⟩:
// each index stored in both sketches contributes its value product divided
// by the probability that the shared hash admitted it to both samples.
func Estimate(a, b *Sketch) (float64, error) {
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	return Score(a, b.idx, b.vals, b.probFactor()), nil
}

// Sample returns the stored indices and values, aliased, with the
// inclusion factor (probFactor) as the aux word: what an index packs into
// a sample.Cols and hands back to Score.
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.idx, s.vals, s.probFactor() }

// View returns a copy of s's header (parameters, dimension and
// per-sketch words) over the given sample, which must equal s's own: the
// index packs every sketch's sample into one array and keeps views over
// the pack, so the pack is the one copy. The view shares the sample's
// arrays; nothing writes through it.
func (s *Sketch) View(idx []uint64, vals []float64) Sketch {
	v := *s
	v.idx, v.vals = idx, vals
	return v
}

// Score is the Horvitz–Thompson estimate of ⟨a, b⟩ of query q against
// another sketch's stored sample (indices, values, inclusion factor),
// which must be of a sketch Compatible with q, so q's mode is its own:
// the per-pair scorer Estimate runs after its check and the index scan
// runs over packed samples.
func Score(q *Sketch, tags []uint64, vals []float64, factor float64) float64 {
	return mergeJoin(q.idx, q.vals, q.probFactor(), tags, vals, factor, q.params.Mode == Priority)
}

// probFactor is the per-sketch word the inclusion probability multiplies
// squared values by: K/‖v‖² for threshold sampling (the pre-divided
// quantity thresholdSample compares against), τ for priority sampling.
func (s *Sketch) probFactor() float64 {
	if s.params.Mode == Threshold {
		return float64(s.params.K) / s.normSq
	}
	return s.tau
}

// inclusion returns the probability min(1, val²·factor) that a stored
// sample with value val entered its sketch, conditioned on the sketch's
// threshold. Threshold sampling computes it with thresholdSample's
// expression shape, so the probability the estimator divides by is
// bit-identical to the one construction compared the hash against. A
// priority sketch's τ = +Inf (whole support retained) means probability 1
// and is checked before the multiply, where 0·Inf would be NaN.
func inclusion(val, factor float64, priority bool) float64 {
	if priority && math.IsInf(factor, 1) {
		return 1
	}
	p := (val * val) * factor
	if p > 1 {
		return 1
	}
	return p
}

// mergeJoin is the one Horvitz–Thompson merge-join over two index-ascending
// samples, run by Score: each index stored in both
// (ai, av) and (bi, bv) adds va·vb / min(p_a, p_b), with each side's
// inclusion probability computed from its own factor word (fa, fb).
func mergeJoin(ai []uint64, av []float64, fa float64, bi []uint64, bv []float64, fb float64, priority bool) float64 {
	sum := 0.0
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		switch {
		case ai[i] < bi[j]:
			i++
		case ai[i] > bi[j]:
			j++
		default:
			p := min(inclusion(av[i], fa, priority), inclusion(bv[j], fb, priority))
			if p > 0 {
				sum += av[i] * bv[j] / p
			}
			i++
			j++
		}
	}
	return sum
}
