// Package minhash implements the paper's Algorithm 1 (the augmented
// unweighted MinHash sketch) and Algorithm 2 (its inner-product estimator).
//
// For a vector a with support A = {i : a[i] ≠ 0}, each of the m samples
// hashes every support index with an independent uniform hash function and
// records the minimum hash value together with the vector value at the
// argmin index. The collision probability between two sketches is the
// Jaccard similarity |A∩B|/|A∪B| (Fact 3), matched values are a uniform
// sample of the support intersection, and the stored minima double as a
// Flajolet–Martin-style estimator of |A∪B| (Lemma 1).
//
// Every estimator runs one match loop, collide: a single pass over two
// aligned sample arrays giving the union accumulator, the collision sum
// and the collision count. Score runs it on the query and one stored
// sample; Estimate and the packed index scan (sample.Scan) both call
// Score, so their results are bit-identical. Merge is sample.MinMerge.
//
// Hash choice: the paper's analysis (like all MinHash analyses) assumes
// uniformly random hash functions. A 2-wise affine family h(x) = ax+b mod p
// is *not* an adequate substitute for the min-wise and union estimators
// here: on structured supports (e.g. consecutive indices) its values form
// an arithmetic progression mod p whose minimum is biased by a constant
// factor, which breaks Lemma 1. We therefore hash each (sample, index)
// pair through the splitmix64 finalizer — a keyed random-oracle-style hash
// that is deterministic given the seed, shared across independently
// sketched vectors, and indistinguishable from uniform for these purposes.
//
// Theorem 4 of the paper: for vectors with entries bounded in [−c, c] and
// m = O(log(1/δ)/ε²), the estimate satisfies
//
//	|F − ⟨a,b⟩| ≤ ε·c²·sqrt(max(|A|,|B|)·|A∩B|)
//
// with probability 1−δ. The bound degrades when entries vary widely in
// magnitude — exactly the failure mode Weighted MinHash (package wmh) fixes.
package minhash

import (
	"errors"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Params configures sketch construction. Two sketches are comparable only
// if they were built with identical Params.
type Params struct {
	// M is the number of MinHash samples (the sketch size).
	M int
	// Seed derives every hash function. Sketches with different seeds are
	// incomparable.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return errors.New("minhash: sample count M must be positive")
	}
	return nil
}

// Sketch is the output of Algorithm 1: per sample, the minimum hash value
// over the vector's support (H^hash) and the vector value at the argmin
// index (H^val). An all-zero vector produces an empty sketch.
type Sketch struct {
	params Params
	dim    uint64
	empty  bool
	hashes []uint64 // 64-bit hash values; compared exactly
	vals   []float64
}

// New sketches the vector v (paper Algorithm 1): a one-off Builder.
func New(v vector.Sparse, p Params) (*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return b.Sketch(v)
}

// fillBlockMajor computes a chunk of MinHash samples in entry-major order:
// the outer loop walks the support once, the inner loop drives every
// sample's running minimum, and each (entry, sample) hash is one Extend
// step off the precomputed per-sample chain key — bitwise identical to the
// per-sample Mix(key, idx) loop at a third of the mixing work.
func fillBlockMajor(hashes []uint64, vals []float64, skeys []uint64, v vector.Sparse) {
	for i := range hashes {
		hashes[i] = 1<<64 - 1
		vals[i] = 0
	}
	nnz := v.NNZ()
	for e := 0; e < nnz; e++ {
		idx, val := v.Entry(e)
		for i := range skeys {
			if hv := hashing.Extend(skeys[i], idx); hv < hashes[i] {
				hashes[i] = hv
				vals[i] = val
			}
		}
	}
}

// sampleKey derives the i-th sample's hash key from the seed.
func sampleKey(seed uint64, i int) uint64 {
	return hashing.Mix(seed, uint64(i), 0x6d68 /* "mh" */)
}

// sampleChainKeys fills buf with the per-sample Mix-chain prefixes
// Mix(sampleKey(seed, i)), so that the per-(sample, index) hash
// Mix(sampleKey, idx) == Extend(chainKey, idx) costs one mix in the inner
// loop.
func sampleChainKeys(buf []uint64, seed uint64, m int) []uint64 {
	buf = buf[:0]
	if cap(buf) < m {
		buf = make([]uint64, 0, m)
	}
	for i := 0; i < m; i++ {
		buf = append(buf, hashing.Mix(sampleKey(seed, i)))
	}
	return buf
}

// Builder is the one construction body of the package (New is a one-off
// Builder): it sketches vectors under one fixed Params, reusing the
// per-sample chain keys, so a warm Sketch allocates only the sketch and
// its two sample arrays. A Builder is single-goroutine. A fill large
// enough to pay for the goroutines (hashing.FanOutWork) splits its
// samples across workers by itself; to use every core on small vectors,
// run one Builder per worker.
type Builder struct {
	p     Params
	skeys []uint64
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Builder{p: p, skeys: sampleChainKeys(nil, p.Seed, p.M)}, nil
}

// Sketch sketches v into a fresh Sketch.
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	s := &Sketch{params: b.p, dim: v.Dim()}
	if v.IsEmpty() {
		s.empty = true
		return s, nil
	}
	m := b.p.M
	s.hashes, s.vals = make([]uint64, m), make([]float64, m)
	if v.NNZ()*m < hashing.FanOutWork {
		fillBlockMajor(s.hashes, s.vals, b.skeys, v)
		return s, nil
	}
	// Samples are independent; split them across workers in contiguous
	// chunks (determinism holds: each sample's hash function is keyed by
	// its own index).
	hashing.ParallelChunks(m, func(lo, hi int) {
		fillBlockMajor(s.hashes[lo:hi], s.vals[lo:hi], b.skeys[lo:hi], v)
	})
	return s, nil
}

// Params returns the construction parameters.
func (s *Sketch) Params() Params { return s.params }

// Dim returns the dimension of the sketched vector.
func (s *Sketch) Dim() uint64 { return s.dim }

// IsEmpty reports whether the sketched vector had no non-zero entries.
func (s *Sketch) IsEmpty() bool { return s.empty }

// StorageWords returns the sketch size in 64-bit words under the paper's
// accounting: each sample stores a 32-bit hash plus a 64-bit value, so a
// sampling sketch with m samples costs 1.5·m words.
func (s *Sketch) StorageWords() float64 {
	return 1.5 * float64(s.params.M)
}

// Signature returns the per-sample minimum hash values as an LSH
// signature: entries of two signatures built with the same Params collide
// with probability equal to the Jaccard similarity of the supports. Empty
// sketches return nil — an all-empty column has no support to band, and a
// sentinel signature would collide with every other empty column's.
func (s *Sketch) Signature() []uint64 { return s.AppendSignature(nil, len(s.hashes)) }

// AppendSignature appends the first n entries of the signature (all of
// them when n exceeds its length) to dst, nothing for an empty sketch, so
// a caller banding many sketches reuses one buffer.
func (s *Sketch) AppendSignature(dst []uint64, n int) []uint64 {
	if s.empty {
		return dst
	}
	return append(dst, s.hashes[:min(n, len(s.hashes))]...)
}

// Compatible reports why two sketches cannot be compared, or nil.
func Compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("minhash: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("minhash: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	return nil
}

// Estimate implements Algorithm 2: an estimate of ⟨a, b⟩ from the two
// sketches alone.
func Estimate(a, b *Sketch) (float64, error) {
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	return Score(a, b.hashes, b.vals, 0), nil
}

// Sample returns the stored minima and values, aliased, and no aux word:
// what an index packs into a sample.Cols and hands back to Score.
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.hashes, s.vals, 0 }

// View returns a copy of s's header (parameters, dimension and
// per-sketch words) over the given sample, which must equal s's own: the
// index packs every sketch's sample into one array and keeps views over
// the pack, so the pack is the one copy. The view shares the sample's
// arrays; nothing writes through it.
func (s *Sketch) View(hashes []uint64, vals []float64) Sketch {
	v := *s
	v.hashes, v.vals = hashes, vals
	return v
}

// Score is Algorithm 2 of query q against another sketch's stored sample
// (tags, vals; MH has no aux word), which must be of a sketch Compatible
// with q: the per-pair scorer Estimate runs after its check and the index
// scan runs over packed samples. An empty side scores 0.
func Score(q *Sketch, tags []uint64, vals []float64, _ float64) float64 {
	if q.empty || len(tags) == 0 {
		return 0
	}
	sumMin, sum := collide(q.hashes, q.vals, tags, vals)
	return estimate(q.params.M, sumMin, sum)
}

// collide is Algorithm 2's one pass over two aligned sample arrays, run by
// Score: the Lemma 1 union accumulator
// Σ_i unit(min(H_a[i], H_b[i])) and the collision sum
// Σ_i 1[H_a[i]=H_b[i]]·H_a^val[i]·H_b^val[i].
func collide(ah []uint64, av []float64, bh []uint64, bv []float64) (sumMin, sum float64) {
	bh, av, bv = bh[:len(ah)], av[:len(ah)], bv[:len(ah)]
	for i, ha := range ah {
		hb := bh[i]
		sumMin += unit(min(ha, hb))
		if ha == hb {
			sum += av[i] * bv[i]
		}
	}
	return sumMin, sum
}

// estimate finishes Algorithm 2 from collide's sums: line 1's union
// estimate Ũ = m/Σmin − 1, times line 2's collision sum over m.
func estimate(m int, sumMin, sum float64) float64 {
	uTilde := float64(m)/sumMin - 1
	return uTilde / float64(m) * sum
}

// unit maps a 64-bit hash value to the open interval (0, 1).
func unit(h uint64) float64 {
	return hashing.UnitFromBits(h)
}
