// Package cws implements Ioffe's Improved Consistent Weighted Sampling
// (ICWS, ICDM 2010) as an alternative backend for the paper's Weighted
// MinHash inner-product sketch.
//
// The paper's Algorithm 3 realizes weighted minwise sampling by expanding
// each entry into ⌊ã[j]²·L⌋ discrete slots. ICWS achieves the same
// coordinated sampling law directly on the *real-valued* weights
// w_j = ã[j]² with no discretization parameter at all: for two vectors the
// per-sample collision probability is exactly the weighted Jaccard
// similarity Σ_j min(w_aj, w_bj) / Σ_j max(w_aj, w_bj), and conditioned on
// a collision the sampled index j is drawn with probability
// min(w_aj, w_bj)/Σmax — the same law as Fact 5.
//
// The inner-product estimator therefore mirrors Algorithm 5, with one
// change: ICWS samples carry no uniform hash minimum, so the weighted
// union size M = Σmax cannot be estimated Flajolet–Martin style. Because
// ã and b̃ are unit vectors, Σmin + Σmax = 2, hence M = 2/(1+J̄); we plug
// in the collision-rate estimate of J̄ (the UnitNormIdentity estimator of
// package wmh). The paper lists faster consistent-sampling variants as
// future work ("such methods should be able to be adapted"); this package
// is that adaptation.
package cws

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Params configures sketch construction. Two sketches are comparable only
// if built with identical Params.
type Params struct {
	// M is the number of consistent weighted samples.
	M int
	// Seed derives all randomness.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 {
		return errors.New("cws: sample count M must be positive")
	}
	return nil
}

// Sketch holds, per sample, the ICWS key (index, level) and the normalized
// entry value at the sampled index, plus the vector norm.
type Sketch struct {
	params Params
	dim    uint64
	norm   float64
	empty  bool
	idx    []uint64 // sampled index j*
	level  []int64  // sampled discrete level t*
	vals   []float64
}

// New sketches the vector v: a one-off Builder.
func New(v vector.Sparse, p Params) (*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return b.Sketch(v)
}

// cwsTag separates the ICWS key chain from other sketch families.
const cwsTag = uint64(0x696377) /* "icw" */

// fillBlockMajor computes a chunk of ICWS samples in entry-major order,
// for global sample indices [sample0, sample0+len(bestA)), over the
// support entries [eLo, eHi) of v with weights normalized by normSq.
// Builder.fill passes the vector's own squared norm with its full entry
// range, or — for Shards — with a sub-range, so shard samples compete
// under exactly the parent's weights.
//
// Per support entry it hoists the weight, its logarithm, the stored value,
// and the (entry, tag) key prefix out of the sample loop, so each
// (entry, sample) pair costs a single Extend, one exp, and the two Ioffe
// Gamma logarithms. Ioffe's acceptance variable is evaluated in fused
// form: with z = y·e^r = e^{r(t−β+1)}, a = c/z = c·e^{−r(t−β+1)} — one
// exponential instead of the textbook two. Output is bitwise identical to
// the sample-major loop over the same chain (see blockmajor_test.go); the
// chain itself is generation 2 (see serialize.go), keyed
// Mix(seed) → entry → tag → sample.
func fillBlockMajor(idxOut []uint64, level []int64, vals []float64, bestA []float64, sample0 int, prefix uint64, v vector.Sparse, eLo, eHi int, normSq float64) {
	for i := range bestA {
		bestA[i] = math.Inf(1)
		idxOut[i] = 0
		level[i] = 0
		vals[i] = 0
	}
	for e := eLo; e < eHi; e++ {
		j, val := v.Entry(e)
		w := val * val / normSq // real-valued weight, no rounding
		logW := math.Log(w)
		sval := sign(val) * math.Sqrt(w)
		jkey := hashing.Extend(hashing.Extend(prefix, j), cwsTag)
		for i := range bestA {
			rng := hashing.NewSplitMix64(hashing.Extend(jkey, uint64(sample0+i)))
			// Ioffe's construction: r, c ~ Gamma(2,1), β ~ U(0,1).
			r := gamma21(rng)
			c := gamma21(rng)
			beta := rng.Float64()
			t := math.Floor(logW/r + beta)
			a := c * math.Exp(-r*(t-beta+1))
			if a < bestA[i] {
				bestA[i] = a
				idxOut[i] = j
				level[i] = int64(t)
				vals[i] = sval
			}
		}
	}
}

// Builder is the one construction body of the package (New and Shards are
// one-off Builders): it sketches vectors under one fixed Params, reusing
// the per-sample key prefixes and the running-minimum scratch; with
// SketchInto the steady-state sketch loop is allocation-free. A Builder is
// single-goroutine. A fill large enough to pay for the goroutines
// (hashing.FanOutWork) splits its samples across workers by itself; to use
// every core on small vectors, run one Builder per worker.
type Builder struct {
	p      Params
	prefix uint64 // Mix(seed), fixed for the lifetime
	bestA  []float64
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Builder{
		p:      p,
		prefix: hashing.Mix(p.Seed),
		bestA:  make([]float64, p.M),
	}, nil
}

// Params returns the builder's construction parameters.
func (b *Builder) Params() Params { return b.p }

// Sketch sketches v into a fresh Sketch.
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	s := new(Sketch)
	if err := b.SketchInto(s, v); err != nil {
		return nil, err
	}
	return s, nil
}

// SketchInto sketches v into dst, reusing dst's sample arrays when they
// have capacity; repeated calls with the same dst allocate nothing.
func (b *Builder) SketchInto(dst *Sketch, v vector.Sparse) error {
	if dst == nil {
		return errors.New("cws: nil destination sketch")
	}
	hdr := b.header(v)
	hdr.idx, hdr.level, hdr.vals = dst.idx, dst.level, dst.vals
	*dst = hdr
	b.fill(dst, v, v.SquaredNorm(), 0, v.NNZ())
	return nil
}

// header returns the sample-less sketch every sketch of v — whole or
// shard — starts from.
func (b *Builder) header(v vector.Sparse) Sketch {
	return Sketch{params: b.p, dim: v.Dim(), norm: v.Norm()}
}

// fill computes dst's samples over the support entries [lo, hi) of v with
// weights normalized by normSq, reusing dst's sample arrays when they have
// capacity; an empty range makes dst the empty sketch. A range large
// enough to pay for the goroutines splits its samples across workers —
// bitwise identical, because each sample's randomness is keyed by its own
// index.
func (b *Builder) fill(dst *Sketch, v vector.Sparse, normSq float64, lo, hi int) {
	m := b.p.M
	if lo >= hi {
		dst.empty, dst.idx, dst.level, dst.vals = true, nil, nil, nil
		return
	}
	if cap(dst.idx) < m {
		dst.idx = make([]uint64, m)
	}
	if cap(dst.level) < m {
		dst.level = make([]int64, m)
	}
	if cap(dst.vals) < m {
		dst.vals = make([]float64, m)
	}
	dst.idx, dst.level, dst.vals = dst.idx[:m], dst.level[:m], dst.vals[:m]
	if (hi-lo)*m < hashing.FanOutWork {
		fillBlockMajor(dst.idx, dst.level, dst.vals, b.bestA, 0, b.prefix, v, lo, hi, normSq)
		return
	}
	hashing.ParallelChunks(m, func(sLo, sHi int) {
		fillBlockMajor(dst.idx[sLo:sHi], dst.level[sLo:sHi], dst.vals[sLo:sHi], b.bestA[sLo:sHi], sLo, b.prefix, v, lo, hi, normSq)
	})
}

// gamma21 samples Gamma(shape=2, scale=1) = −ln(U1·U2).
func gamma21(rng *hashing.SplitMix64) float64 {
	return -math.Log(rng.Float64() * rng.Float64())
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// Params returns the construction parameters.
func (s *Sketch) Params() Params { return s.params }

// Dim returns the dimension of the sketched vector.
func (s *Sketch) Dim() uint64 { return s.dim }

// Norm returns the stored Euclidean norm ‖a‖.
func (s *Sketch) Norm() float64 { return s.norm }

// IsEmpty reports whether the sketched vector had no non-zero entries.
func (s *Sketch) IsEmpty() bool { return s.empty }

// StorageWords returns the sketch size in 64-bit words: per sample the
// sampled index (1 word), the level (stored as 32 bits, 0.5 words), and
// the value (1 word), plus one word for the norm.
func (s *Sketch) StorageWords() float64 {
	return 2.5*float64(s.params.M) + 1
}

// Compatible reports why two sketches cannot be compared, or nil.
func Compatible(a, b *Sketch) error { return compatible(a, b) }

func compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("cws: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("cws: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	return nil
}

// WeightedJaccardEstimate returns the fraction of samples whose (index,
// level) keys coincide — an unbiased estimate of the weighted Jaccard
// similarity of the squared normalized vectors.
func WeightedJaccardEstimate(a, b *Sketch) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	matches := 0
	for i := range a.idx {
		if a.idx[i] == b.idx[i] && a.level[i] == b.level[i] {
			matches++
		}
	}
	return float64(matches) / float64(len(a.idx)), nil
}

// Estimate returns the inner-product estimate ⟨a, b⟩, mirroring paper
// Algorithm 5 with the unit-norm identity M = 2/(1+J̄) in place of the
// Flajolet–Martin weighted-union estimator.
func Estimate(a, b *Sketch) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if a.empty || b.empty {
		return 0, nil
	}
	m := a.params.M
	matches := 0
	sum := 0.0
	for i := 0; i < m; i++ {
		if a.idx[i] == b.idx[i] && a.level[i] == b.level[i] {
			va, vb := a.vals[i], b.vals[i]
			q := math.Min(va*va, vb*vb)
			sum += va * vb / q
			matches++
		}
	}
	jHat := float64(matches) / float64(m)
	mHat := 2 / (1 + jHat)
	return a.norm * b.norm * mHat / float64(m) * sum, nil
}
