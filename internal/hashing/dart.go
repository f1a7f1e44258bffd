package hashing

import (
	"math"
	"math/bits"
)

// This file implements a dart-throwing weighted-minwise sampler in the
// spirit of DartMinHash (Christiani, arXiv:2005.11547): instead of running
// one prefix-minimum record process per (block, sample) pair — O(nnz·m·log L)
// for a whole sketch — it enumerates, in ONE pass over the blocks, the few
// "darts" that can possibly be a per-sample minimum, for all m samples at
// once. The expected dart count is O(m log m), and a block of weight w
// costs about 1 + log2⁺(m·τ·w/L) cell visits (τ the dart budget, below):
// one or two for a block holding a small share of the vector's weight. So
// sketching costs O(nnz + m log m) up to that log factor — versus
// O(nnz·m·log L) for the per-pair record process.
//
// # The process
//
// The paper's record process models block j as w_j slots, each slot s
// carrying one iid U(0,1) hash per sample i; sample i's hash is the
// minimum over all active slots of all blocks. The dart process replaces "one uniform per (slot,
// sample)" with a Poisson point process over (slot, sample, value) space
// whose value-axis intensity per slot is
//
//	dν(t) = dt/(1−t),  so  ν([0,t]) = −ln(1−t).
//
// The void probability of [0,t] for one (slot, sample) is e^{−ν([0,t])} =
// 1−t, hence the minimum dart value over w slots satisfies
//
//	P(min > t) = e^{−w·ν([0,t])} = (1−t)^w,
//
// exactly the law of the minimum of w iid U(0,1) — the same marginal the
// record process produces. Every coordination property follows from the
// process being a deterministic function of seed-keyed cells (below):
//
//   - two parties sharing a block agree on every dart in the common slot
//     prefix, so for w_a ≤ w_b the minima collide exactly when the larger
//     party's overall argmin falls inside the shared prefix;
//   - minima compose: the union of two disjoint slot sets has min equal to
//     the min of the two set minima, bitwise;
//   - conditioned on a collision, the argmin block is sampled with
//     probability proportional to its weight.
//
// # Determinism and coordination
//
// The value axis is cut into per-round regions: round k covers per-slot
// measure ν ∈ [ν_start, ν_start+ν_k) with ν_k = τ·2^k/L (τ the dart
// budget) and ν_start = τ·(2^k−1)/L. The slot axis of a block is cut into
// cells. Cell r > base covers the dyadic slots [2^r, 2^{r+1}); the base
// cell covers [1, 2^{base+1}) in one piece, where base is the largest r
// with m·ν_k·(2^{r+1}−1) ≤ 1, so it holds at most one dart on average.
// (At L = 2⁵⁰ the forty-odd low dyadic cells of a block hold almost no
// darts; merged, they cost one visit instead of one each.) Each (cell,
// round) region is cut into equal-measure slices so no single Poisson mean
// exceeds poissonMaxMean. A slice's dart count is Poisson with a mean depending
// only on (m, L, cell, round), never on the block's weight.
//
// One SplitMix64 stream keyed by (block key, round) drives the whole
// walk: the base cell first, then the dyadic cells in ascending order. A
// block of weight w walks the cells up to ⌊log2 w⌋ and filters darts by
// slot ≤ w after drawing them, so a smaller weight consumes a prefix of
// the stream a larger weight consumes and keeps an exact subset of its
// darts. That prefix relation is the entire coordination argument.
//
// A dart's value is t = 1−e^{−ν} for its value-axis position ν, computed
// by DartValue as −expm1(−ν). At L = 2⁵⁰ every ν is of order 10⁻¹⁵;
// −expm1 keeps its full relative precision, where 1−e^{−ν} would round
// every value to a multiple of 2⁻⁵³ and let vectors with disjoint
// supports share minima by accident. ThrowBlock returns the positions ν:
// t is non-decreasing in ν, so a sketcher keeps its per-sample minima in
// ν and converts each kept minimum once, instead of paying an expm1 per
// dart.
//
// The per-sample minimum is only final once every sample has at least one
// dart: a sample missed by round k (probability e^{−(2^{k+1}−1)τ} each) is
// retried by round k+1, which doubles the dart budget. dart_test.go
// property-tests the U(0,1)-minimum marginals, the coordination
// invariants above, and the fallback rounds under artificially tiny
// budgets.

// poissonMaxMean caps the Poisson mean of a single slice: e^{−8} ≈ 3.4e−4
// keeps Knuth's product method exact in float64 and its running time
// bounded per draw.
const poissonMaxMean = 8.0

// DefaultDartBudget returns the round-0 expected dart count per sample,
// τ = ln(m+1)+2. The expected number of samples with no dart after round 0
// is m·e^{−τ} ≈ 0.14, so the doubled-budget fallback round runs for ~12%
// of vectors and the expected total work stays below 1.3 rounds.
func DefaultDartBudget(m int) float64 {
	return math.Log(float64(m)+1) + 2
}

// dartCell holds the precomputed constants for one (slot-cell, round)
// pair: the cell's slot range, the slice subdivision of the round's value
// region and the Poisson mean per slice. They depend only on (m, l, cell,
// round), so every party derives identical tables.
type dartCell struct {
	lo, span  uint64  // slots [lo, lo+span)
	slices    int     // equal-measure value slices in this cell
	sliceNu   float64 // per-slot value measure of one slice
	expNegLam float64 // e^{−mean darts per slice}
}

// dartRound holds one value-axis region: rounds ascend the value axis, so
// any dart from round k is strictly smaller than any dart from round k+1.
type dartRound struct {
	nuStart float64 // cumulative per-slot measure below the region
	// base is the highest dyadic cell merged into the base cell: cells[0]
	// covers slots [1, 2^{base+1}) and cells[i] the dyadic cell base+i.
	base  int
	cells []dartCell
}

// DartProcess throws darts for weighted-minwise sketches with m samples
// and total slot budget (discretization) l. It owns the precomputed round
// tables and the dart scratch buffers, so a warm process allocates nothing
// per ThrowBlock call; like the sketch Builders it is single-goroutine.
//
// Two parties coordinate if and only if they use equal (m, l, budget):
// all three feed the dart randomness.
type DartProcess struct {
	m      int
	l      uint64
	budget float64
	rounds []dartRound
	// scratch returned by ThrowBlock, overwritten per call
	samples   []int32
	positions []float64
	slots     []uint64
	// cells counts the cells ThrowBlock has walked; tests pin the walk's
	// cost model with it.
	cells int
}

// NewDartProcess returns a process for m samples over slot budget l with
// the default dart budget.
func NewDartProcess(m int, l uint64) *DartProcess {
	return NewDartProcessBudget(m, l, DefaultDartBudget(m))
}

// NewDartProcessBudget is NewDartProcess with an explicit round-0 dart
// budget (expected darts per sample). Budgets below the default force
// frequent fallback rounds; tests use this to exercise the miss path.
// It panics on non-positive m, l, or budget.
func NewDartProcessBudget(m int, l uint64, budget float64) *DartProcess {
	if m <= 0 || l == 0 || !(budget > 0) {
		panic("hashing: invalid DartProcess parameters")
	}
	p := &DartProcess{m: m, l: l, budget: budget}
	// Rounds 0–2 cover all but e^{−7τ} of vectors; building them eagerly
	// keeps the warm ThrowBlock path allocation-free even when a miss
	// triggers a fallback round.
	for k := 0; k < 3; k++ {
		p.round(k)
	}
	return p
}

// M returns the per-sketch sample count the process throws darts for.
func (p *DartProcess) M() int { return p.m }

// round returns the k-th round table, building rounds lazily.
func (p *DartProcess) round(k int) *dartRound {
	for len(p.rounds) <= k {
		i := len(p.rounds)
		// Round i covers per-slot measure ν_i = τ·2^i/l starting at
		// cumulative measure τ·(2^i − 1)/l.
		nu := p.budget * float64(uint64(1)<<uint(i)) / float64(p.l)
		// All m samples of one slot throw m·ν_i darts on average. The base
		// cell takes every low cell whose slots together stay within one
		// dart, and at least cell 0; it never reaches past l's top cell.
		perSlot := float64(p.m) * nu
		top := bits.Len64(p.l) - 1
		base := 0
		for base < top && perSlot*float64(uint64(1)<<uint(base+2)-1) <= 1 {
			base++
		}
		rd := dartRound{
			nuStart: p.budget * float64(uint64(1)<<uint(i)-1) / float64(p.l),
			base:    base,
			cells:   make([]dartCell, top-base+1),
		}
		for c := range rd.cells {
			lo, span := uint64(1)<<uint(base+c), uint64(1)<<uint(base+c)
			if c == 0 {
				lo, span = 1, uint64(1)<<uint(base+1)-1
			}
			lam := perSlot * float64(span)
			slices := 1
			if lam > poissonMaxMean {
				slices = int(math.Ceil(lam / poissonMaxMean))
			}
			rd.cells[c] = dartCell{
				lo:        lo,
				span:      span,
				slices:    slices,
				sliceNu:   nu / float64(slices),
				expNegLam: math.Exp(-lam / float64(slices)),
			}
		}
		p.rounds = append(p.rounds, rd)
	}
	return &p.rounds[k]
}

// DartValue is the value t = 1−e^{−ν} of the dart at value-axis position
// ν, with full relative precision for tiny ν.
func DartValue(nu float64) float64 { return -math.Expm1(-nu) }

// ThrowBlock enumerates the darts of one block (stream key, weight w) in
// the given round's value region, for every sample at once. It returns
// parallel slices of sample indices, dart positions ν (DartValue gives a
// dart's value) and dart slots; all three point into scratch owned by the
// process and are overwritten by the next call. The positions all lie
// inside round k's value region, so they are strictly larger than every
// round-(k−1) dart's and strictly smaller than every round-(k+1) dart's —
// a sample that has any dart after a full round over the blocks is final.
// It panics if w is 0 or exceeds the slot budget l.
//
// The darts of a smaller weight w' ≤ w are exactly the returned darts with
// slot ≤ w', in the same order, so one throw at the largest weight serves
// every vector that holds the block.
func (p *DartProcess) ThrowBlock(key uint64, w uint64, round int) (samples []int32, positions []float64, slots []uint64) {
	if w == 0 || w > p.l {
		panic("hashing: ThrowBlock weight out of range")
	}
	rd := p.round(round)
	samples, positions, slots = p.samples[:0], p.positions[:0], p.slots[:0]
	// The base cell, then the dyadic cells up to the one holding slot w.
	n := max(bits.Len64(w)-1-rd.base, 0) + 1
	p.cells += n
	// The stream is identical for every party: the weight enters only
	// through the cell count and the slot filter below, so a smaller
	// weight reads a prefix of it.
	rng := SplitMix64{state: Extend(key, uint64(round))}
	for c := range rd.cells[:n] {
		cell := &rd.cells[c]
		for s := 0; s < cell.slices; s++ {
			// Poisson(λ) darts in this slice, by Knuth's product method.
			prod := rng.Float64()
			for prod >= cell.expNegLam {
				// One dart: slot, sample, then its position u inside the
				// slice; the measure ν is uniform there. The draw sequence
				// is fixed (stream alignment across parties), but ν is
				// only computed for kept darts. The conversion to float64
				// rounds the product before the sum, so no platform fuses
				// them and parties agree on ν to the last bit.
				var slot uint64
				if c == 0 {
					slot = cell.lo + rng.Uint64n(cell.span)
				} else {
					slot = cell.lo + rng.Uint64()&(cell.span-1)
				}
				sample := rng.Uint64n(uint64(p.m))
				u := rng.Float64()
				if slot <= w { // partial base or top cell: reject beyond-w slots
					nu := rd.nuStart + float64((float64(s)+u)*cell.sliceNu)
					samples = append(samples, int32(sample))
					positions = append(positions, nu)
					slots = append(slots, slot)
				}
				prod *= rng.Float64()
			}
		}
	}
	p.samples, p.positions, p.slots = samples, positions, slots
	return samples, positions, slots
}
