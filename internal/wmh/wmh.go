// Package wmh implements the paper's main contribution: the Weighted
// MinHash inner-product sketch (Algorithm 3), its rounding step
// (Algorithm 4, see round.go), and the estimator (Algorithm 5).
//
// # Construction
//
// A vector a is normalized to â = a/‖a‖ and rounded so each squared entry
// is an integer multiple of 1/L (integer weights w_j, Σw_j = L). The
// expanded vector ā of Algorithm 3 has, for each support index j, a block
// of L slots of which the first w_j are active. Each of the m samples takes
// a MinHash over all active slots; the sketch stores the minimum hash
// value, the rounded entry value ã[j] of the argmin block, and ‖a‖.
//
// Sampling a block's prefix minimum does not require hashing w_j ≤ L slots:
// the prefix-minimum record process (internal/hashing.PrefixMin) visits
// only the O(log L) running minima, giving the paper's
// O(|A|·m·log L) sketching cost — the "active index" technique of
// Gollapudi & Panigrahy described in Section 5.
//
// # Estimation
//
// Matched samples are a weighted coordinated sample of the support
// intersection: index j is sampled with probability
// min(ã[j]², b̃[j]²)/Σmax (Fact 5). Algorithm 5 importance-weights each
// matched product by q_i = min(v_a², v_b²), scales by the weighted-union
// estimate M̃ (a Flajolet–Martin distinct-elements estimator over the
// expanded domain, divided by L), and multiplies back ‖a‖‖b‖.
//
// Theorem 2: with m = O(log(1/δ)/ε²) the error is at most
// ε·max(‖a_I‖‖b‖, ‖a‖‖b_I‖) with probability 1−δ — never worse than the
// ε‖a‖‖b‖ of linear sketching, and much better for sparse vectors with
// limited support overlap.
package wmh

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Params configures sketch construction. Two sketches are comparable only
// if built with identical Params (and the same construction variant).
type Params struct {
	// M is the number of MinHash samples (the sketch size).
	M int
	// Seed derives every hash function; sketches with different seeds are
	// incomparable.
	Seed uint64
	// L is the discretization parameter of Algorithm 4. It affects only
	// accuracy (entries with â[j]² < 1/L round away) and sketching time
	// (logarithmically), never the sketch size. Zero selects
	// DefaultL(dim).
	L uint64
	// QuantizeValues stores W^val entries as float32 instead of float64,
	// halving the per-sample value storage (1 word/sample total instead
	// of 1.5). The paper's storage discussion points at exactly this
	// trick ("standard quantization tricks could likely be used to reduce
	// the size of numbers in all sketches"); since stored values are
	// sign·sqrt(w/L) ∈ [−1, 1], float32's 24-bit mantissa costs at most
	// ~6·10⁻⁸ relative error per matched term.
	QuantizeValues bool
	// Dart selects the dart-throwing construction (DartMinHash-style; see
	// dart.go): all M samples are filled in one pass over the rounded
	// blocks at expected O(nnz + M log M) cost, instead of one record
	// process per (block, sample) pair at O(nnz·M·log L). The per-sample
	// law is identical to the default construction — same marginals, same
	// collision probabilities, same estimator — but the randomness is
	// different, so dart sketches are comparable only with dart sketches.
	Dart bool
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return errors.New("wmh: sample count M must be positive")
	}
	if p.L > MaxL {
		return fmt.Errorf("wmh: L=%d exceeds MaxL=%d", p.L, MaxL)
	}
	return nil
}

// effectiveL resolves the discretization parameter for dimension dim.
func (p Params) effectiveL(dim uint64) uint64 {
	if p.L == 0 {
		return DefaultL(dim)
	}
	return p.L
}

// variant tags which construction produced a sketch; the variants use
// different randomness and must not be mixed.
type variant uint8

const (
	// variantFast is the active-index record process.
	variantFast variant = 0
	// variantNaive hashes every active slot explicitly. Only the tests
	// build it, as the literal reading of Algorithm 3 the record process
	// is checked against; its sketches still decode.
	variantNaive variant = 1
	// variantRemoved was a polynomial-log record process. The value stays
	// reserved — blockKey and dartBlockKey mix the variant into the stream
	// key, so renumbering would change every dart sketch — and
	// UnmarshalBinary rejects it.
	variantRemoved variant = 2
	// variantDartV3 was the first dart construction. Its dart values were
	// rounded to multiples of 2⁻⁵³, so at large L vectors with disjoint
	// supports shared minima by accident. Nothing builds it; its sketches
	// still decode but refuse comparison with variantDart, and the value
	// stays reserved like variantRemoved.
	variantDartV3 variant = 3
	// variantDart is the one-pass dart-throwing construction (Params.Dart).
	variantDart variant = 4
)

// variant resolves the construction variant New builds under p.
func (p Params) variant() variant {
	if p.Dart {
		return variantDart
	}
	return variantFast
}

// Sketch is the output of Algorithm 3: per sample the minimum hash value
// (W^hash) and the rounded normalized entry value at the argmin block
// (W^val), plus the Euclidean norm of the original vector.
type Sketch struct {
	params  Params
	dim     uint64
	l       uint64 // resolved discretization parameter
	norm    float64
	empty   bool
	variant variant
	hashes  []float64 // record-process minima in (0,1); compared exactly
	vals    []float64 // ã[j] = sign·sqrt(w_j/L) of the argmin block
}

// New sketches the vector v (paper Algorithm 3) using the fast
// active-index construction (or the dart construction when p.Dart): a
// one-off Builder.
func New(v vector.Sparse, p Params) (*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return b.Sketch(v)
}

// sampleKeys fills buf with the per-sample Mix-chain prefixes
// Mix(seed, i); the per-(sample, block) key of blockKey is recovered with
// two Extend steps, so block-major loops mix two words per pair instead of
// re-mixing the full four-word tuple.
func sampleKeys(buf []uint64, seed uint64, m int) []uint64 {
	return hashing.ChainKeys(buf, hashing.Mix(seed), m)
}

// roundedValues fills buf with the rounded entry values
// ã[j] = sign(a[j])·sqrt(w_j/L) per block. The sign is threaded directly
// from the vector's sorted support (Round emits blocks in index order), so
// no per-block binary search is needed.
func roundedValues(buf []float64, v vector.Sparse, idx, weights []uint64, l uint64, quantize bool) []float64 {
	buf = buf[:0]
	if cap(buf) < len(idx) {
		buf = make([]float64, 0, len(idx))
	}
	e := 0
	nnz := v.NNZ()
	for k := range idx {
		for e < nnz {
			i, val := v.Entry(e)
			if i < idx[k] {
				e++
				continue
			}
			if i != idx[k] {
				panic("wmh: rounded block index missing from support")
			}
			sign := 1.0
			if val < 0 {
				sign = -1.0
			}
			bv := sign * math.Sqrt(float64(weights[k])/float64(l))
			if quantize {
				bv = float64(float32(bv))
			}
			buf = append(buf, bv)
			e++
			break
		}
	}
	if len(buf) != len(idx) {
		panic("wmh: rounded block index missing from support")
	}
	return buf
}

// fillBlockMajor computes the MinHash samples hashes[i], vals[i] for a
// contiguous chunk of samples in block-major order: the outer loop walks
// the blocks once and the inner loop drives the running minima of every
// sample in the chunk. This keeps the chunk's output slices cache-resident,
// derives each pair key with two mixes off the per-sample prefix, and
// produces output bitwise identical to the sample-major loop (the running
// minimum takes the first strictly smaller hash in block order either way).
func fillBlockMajor(hashes, vals []float64, skeys []uint64, idx, weights []uint64, bvals []float64) {
	for i := range hashes {
		hashes[i] = math.Inf(1)
		vals[i] = 0
	}
	tag := 0x776d68 + uint64(variantFast) /* "wmh" */
	for k := range idx {
		block := idx[k]
		w := weights[k]
		bv := bvals[k]
		for i := range skeys {
			key := hashing.Extend(hashing.Extend(skeys[i], block), tag)
			if h := hashing.PrefixMin(key, w); h < hashes[i] {
				hashes[i] = h
				vals[i] = bv
			}
		}
	}
}

// blockKey derives the per-(sample, block) stream key. Both parties
// sketching different vectors derive the same key for a shared block,
// which is what coordinates the samples. fillBlockMajor derives the same
// key incrementally: blockKey == Extend(Extend(Mix(seed, sample), block), tag).
func blockKey(seed uint64, sample int, block uint64, vr variant) uint64 {
	return hashing.Mix(seed, uint64(sample), block, 0x776d68+uint64(vr) /* "wmh" */)
}

// Params returns the construction parameters.
func (s *Sketch) Params() Params { return s.params }

// Dim returns the dimension of the sketched vector.
func (s *Sketch) Dim() uint64 { return s.dim }

// Norm returns the stored Euclidean norm ‖a‖.
func (s *Sketch) Norm() float64 { return s.norm }

// L returns the resolved discretization parameter.
func (s *Sketch) L() uint64 { return s.l }

// IsEmpty reports whether the sketched vector had no non-zero entries.
func (s *Sketch) IsEmpty() bool { return s.empty }

// StorageWords returns the sketch size in 64-bit words under the paper's
// accounting: per sample a 32-bit hash plus a 64-bit value (1.5 words) —
// or a 32-bit value (1 word) with QuantizeValues — plus one word for the
// stored norm.
func (s *Sketch) StorageWords() float64 {
	perSample := 1.5
	if s.params.QuantizeValues {
		perSample = 1.0
	}
	return perSample*float64(s.params.M) + 1
}

// Signature returns the per-sample minimum hash values (as raw float bits)
// for use as an LSH signature: entries of two signatures built with the
// same Params collide with probability equal to the *weighted* Jaccard
// similarity of the squared normalized vectors (Fact 5). Empty sketches
// return nil.
func (s *Sketch) Signature() []uint64 {
	if s.empty {
		return nil
	}
	out := make([]uint64, len(s.hashes))
	for i, h := range s.hashes {
		out[i] = math.Float64bits(h)
	}
	return out
}

// Compatible reports why two sketches cannot be compared (parameter,
// seed, resolved-L, or construction-variant mismatch), or nil.
func Compatible(a, b *Sketch) error { return compatible(a, b) }

// compatible reports why two sketches cannot be compared, or nil.
func compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("wmh: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("wmh: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	if a.l != b.l {
		return fmt.Errorf("wmh: discretization mismatch %d vs %d", a.l, b.l)
	}
	if a.variant != b.variant {
		if a.variant == variantDartV3 || b.variant == variantDartV3 {
			return errors.New("wmh: cannot mix sketches from different construction variants: variant 3 is the retired dart construction; re-sketch the source data")
		}
		return errors.New("wmh: cannot mix sketches from different construction variants")
	}
	return nil
}

// UnionEstimator selects how Algorithm 5 estimates the weighted union size
// M = Σ_j max(ã[j]², b̃[j]²).
type UnionEstimator int

const (
	// FMUnion is the paper's estimator: a Flajolet–Martin distinct-elements
	// estimate of the expanded union |Ā∪B̄| from the stored hash minima,
	// divided by L (Algorithm 5 line 2).
	FMUnion UnionEstimator = iota
	// UnitNormIdentity exploits that ã and b̃ are unit vectors, so
	// Σmin + Σmax = 2 and M = 2/(1+J̄); it plugs in the collision-rate
	// estimate of J̄. An ablation alternative not in the paper.
	UnitNormIdentity
)

// Options tweaks estimation; the zero value reproduces paper Algorithm 5.
type Options struct {
	Union UnionEstimator
}

// Estimate implements Algorithm 5 with the paper's defaults.
func Estimate(a, b *Sketch) (float64, error) {
	return EstimateWithOptions(a, b, Options{})
}

// EstimateWithOptions implements Algorithm 5 with configurable
// weighted-union estimation.
func EstimateWithOptions(a, b *Sketch, opt Options) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	m := a.params.M

	// Collision scan: Σ 1[W_a^hash = W_b^hash]·(v_a·v_b)/q_i with
	// q_i = min(v_a², v_b²) (Algorithm 5 lines 1 and 3), plus the
	// ingredients of both union estimators.
	sumMin := 0.0
	matches := 0
	sum := 0.0
	for i := 0; i < m; i++ {
		ha, hb := a.hashes[i], b.hashes[i]
		if ha < hb {
			sumMin += ha
		} else {
			sumMin += hb
		}
		if ha == hb {
			va, vb := a.vals[i], b.vals[i]
			q := math.Min(va*va, vb*vb)
			sum += va * vb / q
			matches++
		}
	}

	var mTilde float64
	switch opt.Union {
	case FMUnion:
		// Line 2: M̃ = (1/L)·(m / Σ min(W_a^hash, W_b^hash) − 1).
		mTilde = (float64(m)/sumMin - 1) / float64(a.l)
	case UnitNormIdentity:
		jHat := float64(matches) / float64(m)
		mTilde = 2 / (1 + jHat)
	default:
		return 0, fmt.Errorf("wmh: unknown union estimator %d", opt.Union)
	}

	// Lines 3–4: I = (M̃/m)·Σ..., result = ‖a‖·‖b‖·I.
	i := mTilde / float64(m) * sum
	return a.norm * b.norm * i, nil
}

// WeightedJaccardEstimate returns the fraction of colliding samples, an
// unbiased estimate of the weighted Jaccard similarity
// J̄ = Σmin(ã²,b̃²)/Σmax(ã²,b̃²) of the rounded normalized vectors (Fact 5
// claim 1).
func WeightedJaccardEstimate(a, b *Sketch) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	matches := 0
	for i := range a.hashes {
		if a.hashes[i] == b.hashes[i] {
			matches++
		}
	}
	return float64(matches) / float64(len(a.hashes)), nil
}

// WeightedUnionEstimate returns M̃, the Algorithm 5 estimate of
// Σ_j max(ã[j]², b̃[j]²) ∈ [1, 2].
func WeightedUnionEstimate(a, b *Sketch) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	sumMin := 0.0
	for i := range a.hashes {
		sumMin += math.Min(a.hashes[i], b.hashes[i])
	}
	return (float64(len(a.hashes))/sumMin - 1) / float64(a.l), nil
}
