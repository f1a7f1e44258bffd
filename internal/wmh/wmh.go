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
// Sampling a block's prefix minimum does not require hashing w_j ≤ L slots.
// The construction is dart throwing (DartMinHash, Christiani,
// arXiv:2005.11547; see dart.go and internal/hashing.DartProcess): one pass
// over the rounded blocks enumerates only the darts that can be some
// sample's minimum and fills all m samples at once, at expected
// O(|A| + m log m) cost. Each sample's law is exactly that of the paper's
// min over iid slot hashes. The paper's own construction, the active-index
// record process of Gollapudi & Panigrahy (Section 5, O(|A|·m·log L)),
// lives on in the package's tests as the reference the dart construction
// is checked against; the decoder refuses the sketches it wrote.
//
// # Estimation
//
// Matched samples are a weighted coordinated sample of the support
// intersection: index j is sampled with probability
// min(ã[j]², b̃[j]²)/Σmax (Fact 5). Algorithm 5 importance-weights each
// matched product by q_i = min(v_a², v_b²), scales by the weighted-union
// estimate M̃ (a Flajolet–Martin distinct-elements estimator over the
// expanded domain, divided by L), and multiplies back ‖a‖‖b‖. One match
// loop, collide, computes Σmin, the collision-weight sum and the collision
// count in a single pass. Score runs it on the query and one stored
// sample (float64 dart-minimum tags, aux word the norm); Estimate and the
// packed index scan (sample.Scan) both call Score, so their results are
// bit-identical.
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
	"slices"

	"repro/internal/vector"
)

// Params configures sketch construction. Two sketches are comparable only
// if built with identical Params.
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

// dartVariant is the construction byte every sketch carries on the wire,
// the dart construction's (dart.go); dartBlockKey mixes it into the
// stream key. Bytes 0–3 belonged to retired constructions whose
// randomness differs (the record process, explicit slot hashing, a
// polynomial-log record process, and a first dart construction whose
// dart values were rounded to multiples of 2⁻⁵³); the decoder refuses
// them.
const dartVariant = 4

// Sketch is the output of Algorithm 3: per sample the minimum hash value
// (W^hash) and the rounded normalized entry value at the argmin block
// (W^val), plus the Euclidean norm of the original vector.
type Sketch struct {
	params Params
	dim    uint64
	l      uint64 // resolved discretization parameter
	norm   float64
	empty  bool
	hashes []float64 // per-sample minimum dart values in (0,1]; compared exactly
	vals   []float64 // ã[j] = sign·sqrt(w_j/L) of the argmin block
}

// New sketches the vector v (paper Algorithm 3) with a one-off Builder.
func New(v vector.Sparse, p Params) (*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return b.Sketch(v)
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
func (s *Sketch) Signature() []uint64 { return s.AppendSignature(nil, len(s.hashes)) }

// AppendSignature appends the first n entries of the signature (all of
// them when n exceeds its length) to dst, nothing for an empty sketch, so
// a caller banding many sketches reuses one buffer and converts only the
// entries its bands read.
func (s *Sketch) AppendSignature(dst []uint64, n int) []uint64 {
	if s.empty {
		return dst
	}
	hs := s.hashes[:min(n, len(s.hashes))]
	dst = slices.Grow(dst, len(hs))
	for _, h := range hs {
		dst = append(dst, math.Float64bits(h))
	}
	return dst
}

// Compatible reports why two sketches cannot be compared (parameter,
// seed, dimension, or resolved-L mismatch), or nil.
func Compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("wmh: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("wmh: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	if a.l != b.l {
		return fmt.Errorf("wmh: discretization mismatch %d vs %d", a.l, b.l)
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
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	return Score(a, b.hashes, b.vals, b.norm), nil
}

// Sample returns the stored minima and block values, aliased, with the
// norm ‖v‖ as the aux word: what an index packs into a sample.Cols and
// hands back to Score.
func (s *Sketch) Sample() ([]float64, []float64, float64) { return s.hashes, s.vals, s.norm }

// View returns a copy of s's header (parameters, dimension and
// per-sketch words) over the given sample, which must equal s's own: the
// index packs every sketch's sample into one array and keeps views over
// the pack, so the pack is the one copy. The view shares the sample's
// arrays; nothing writes through it.
func (s *Sketch) View(hashes, vals []float64) Sketch {
	v := *s
	v.hashes, v.vals = hashes, vals
	return v
}

// Score is Algorithm 5 with the paper's FMUnion default, of query q
// against another sketch's stored sample (minima, block values, norm),
// which must be of a sketch Compatible with q, so q's M and resolved L
// are its own: the per-pair scorer Estimate runs after its check and the
// index scan runs over packed samples. An empty side scores 0.
func Score(q *Sketch, tags, vals []float64, norm float64) float64 {
	if q.empty || len(tags) == 0 {
		return 0
	}
	m := q.params.M
	sumMin, sum, _ := collide(q.hashes, q.vals, tags, vals)
	return estimate(m, fmUnion(m, q.l, sumMin), sum, q.norm, norm)
}

// EstimateWithOptions implements Algorithm 5 with configurable
// weighted-union estimation; FMUnion is Estimate.
func EstimateWithOptions(a, b *Sketch, opt Options) (float64, error) {
	switch opt.Union {
	case FMUnion:
		return Estimate(a, b)
	case UnitNormIdentity:
	default:
		return 0, fmt.Errorf("wmh: unknown union estimator %d", opt.Union)
	}
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	m := a.params.M
	_, sum, matches := collide(a.hashes, a.vals, b.hashes, b.vals)
	jHat := float64(matches) / float64(m)
	return estimate(m, 2/(1+jHat), sum, a.norm, b.norm), nil
}

// collide is Algorithm 5's one pass over two aligned sample arrays, run by
// Score and the UnitNormIdentity ablation: Σ_i min(W_a^hash, W_b^hash)
// for the FM union estimate (line 2), the collision sum
// Σ_i 1[W_a^hash = W_b^hash]·(v_a·v_b)/q_i with q_i = min(v_a², v_b²)
// (lines 1 and 3), and the collision count.
func collide(ah, av, bh, bv []float64) (sumMin, sum float64, matches int) {
	bh, av, bv = bh[:len(ah)], av[:len(ah)], bv[:len(ah)]
	for i, ha := range ah {
		hb := bh[i]
		sumMin += min(ha, hb)
		if ha == hb {
			va, vb := av[i], bv[i]
			sum += va * vb / min(va*va, vb*vb)
			matches++
		}
	}
	return sumMin, sum, matches
}

// fmUnion is Algorithm 5 line 2: M̃ = (1/L)·(m / Σ min(W_a^hash, W_b^hash) − 1).
func fmUnion(m int, l uint64, sumMin float64) float64 {
	return (float64(m)/sumMin - 1) / float64(l)
}

// estimate is Algorithm 5 lines 3–4: I = (M̃/m)·Σ..., result = ‖a‖·‖b‖·I.
func estimate(m int, mTilde, sum, normA, normB float64) float64 {
	return normA * normB * (mTilde / float64(m) * sum)
}
