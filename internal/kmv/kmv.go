// Package kmv implements the K-Minimum-Values (bottom-k) sketch used as the
// "KMV" baseline in the paper's experiments (Beyer et al. 2007; the
// augmented value-carrying variant follows Santos et al. 2021).
//
// Unlike MinHash, which draws m samples with replacement using m hash
// functions, KMV hashes the support once and keeps the k smallest hash
// values together with the vector values at those indices — a coordinated
// bottom-k sample without replacement.
//
// Estimation uses the standard threshold construction: let τ be the k-th
// smallest hash value in the union of the two sketches. Every support
// index with h(j) < τ is guaranteed to be present in both sketches when it
// is present in both supports, so {j ∈ A∩B : h(j) < τ} is observable, each
// such j is included with probability τ, and the Horvitz–Thompson estimate
// of ⟨a,b⟩ is Σ_matched a[j]·b[j] / τ. When a sketch holds its entire
// support the estimates become exact.
//
// One allocation-free walk, threshold, finds τ and the matched products
// below it. Score and JoinSize run it on the query and one stored sample
// (aux word the support size); the pairwise estimators and the packed
// index scan (sample.Scan) both call them, so their results are
// bit-identical.
package kmv

import (
	"errors"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Params configures sketch construction. Two sketches are comparable only
// if built with identical Params.
type Params struct {
	// K is the number of minimum hash values retained.
	K int
	// Seed derives the shared hash function.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K <= 0 {
		return errors.New("kmv: K must be positive")
	}
	return nil
}

// Sketch holds the k smallest support hashes (ascending) and the vector
// values at those indices.
type Sketch struct {
	params Params
	dim    uint64
	nnz    int // true support size (known at construction)
	hashes []uint64
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

// Builder sketches many vectors under one fixed Params, keeping the k
// smallest hashes in a bounded max-heap (O(|A|·log k) instead of sorting
// the whole support) and reusing the heap scratch across vectors, so a
// warm Sketch allocates only the sketch and its two sample arrays. A
// Builder is single-goroutine; run one per worker to use every core.
type Builder struct {
	p    Params
	key  uint64  // per-index hash chain prefix, fixed for the lifetime
	heap []entry // scratch: max-heap while collecting, sorted ascending after
}

// entry pairs a hash with the vector value at its index.
type entry struct {
	hash uint64
	val  float64
}

// NewBuilder validates p and returns a reusable sketch builder.
func NewBuilder(p Params) (*Builder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The per-index hash of the original formulation is
	// Mix(Mix(seed, tag), idx); absorbing the two fixed words into a chain
	// prefix leaves one Extend per support index.
	return &Builder{p: p, key: hashing.Mix(hashing.Mix(p.Seed, 0x6b6d76 /* "kmv" */))}, nil
}

// Sketch sketches v into a fresh Sketch.
func (b *Builder) Sketch(v vector.Sparse) (*Sketch, error) {
	// Collect the k smallest hashes in a max-heap: the root is the largest
	// retained hash and is evicted whenever a smaller one arrives.
	h := b.heap[:0]
	k := b.p.K
	nnz := v.NNZ()
	if cap(h) < k {
		// Full capacity up front: sizing to the current support would
		// reallocate on every vector larger than all previous ones.
		h = make([]entry, 0, k)
	}
	for e := 0; e < nnz; e++ {
		idx, val := v.Entry(e)
		hash := hashing.Extend(b.key, idx)
		if len(h) < k {
			h = append(h, entry{hash: hash, val: val})
			siftUp(h, len(h)-1)
		} else if hash < h[0].hash {
			h[0] = entry{hash: hash, val: val}
			siftDown(h, 0)
		}
	}
	b.heap = h

	// Heapsort in place: repeatedly move the max to the end, leaving the
	// retained pairs in ascending hash order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}

	s := &Sketch{
		params: b.p, dim: v.Dim(), nnz: nnz,
		hashes: make([]uint64, len(h)), vals: make([]float64, len(h)),
	}
	for i, e := range h {
		s.hashes[i] = e.hash
		s.vals[i] = e.val
	}
	// No need to restore the heap invariant: the next call truncates.
	return s, nil
}

// siftUp restores the max-heap property after appending at position i.
func siftUp(h []entry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].hash >= h[i].hash {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap property after replacing position i.
func siftDown(h []entry, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r].hash > h[l].hash {
			big = r
		}
		if h[i].hash >= h[big].hash {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Params returns the construction parameters.
func (s *Sketch) Params() Params { return s.params }

// Dim returns the dimension of the sketched vector.
func (s *Sketch) Dim() uint64 { return s.dim }

// IsEmpty reports whether the sketched vector had no non-zero entries.
func (s *Sketch) IsEmpty() bool { return len(s.hashes) == 0 }

// SawAll reports whether the sketch retained the vector's entire support
// (|A| ≤ K), in which case estimates involving it are exact.
func (s *Sketch) SawAll() bool { return s.nnz <= s.params.K }

// StorageWords returns the sketch size in 64-bit words under the paper's
// accounting (32-bit hash + 64-bit value per retained sample).
func (s *Sketch) StorageWords() float64 { return 1.5 * float64(s.params.K) }

// Compatible reports why two sketches cannot be compared, or nil.
func Compatible(a, b *Sketch) error {
	if a.params != b.params {
		return fmt.Errorf("kmv: incompatible params %+v vs %+v", a.params, b.params)
	}
	if a.dim != b.dim {
		return fmt.Errorf("kmv: dimension mismatch %d vs %d", a.dim, b.dim)
	}
	return nil
}

// Estimate returns the inner-product estimate ⟨a, b⟩ from the two sketches.
func Estimate(a, b *Sketch) (float64, error) {
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	return Score(a, b.hashes, b.vals, float64(b.nnz)), nil
}

// JoinSizeEstimate estimates |A∩B| (the join size when the vectors are
// key-indicator vectors, §1.2 of the paper).
func JoinSizeEstimate(a, b *Sketch) (float64, error) {
	if err := Compatible(a, b); err != nil {
		return 0, err
	}
	return JoinSize(a, b.hashes, b.vals, float64(b.nnz)), nil
}

// Sample returns the retained hashes and values, aliased, with the true
// support size as the aux word (SawAll reads it): what an index packs
// into a sample.Cols and hands back to Score and JoinSize.
func (s *Sketch) Sample() ([]uint64, []float64, float64) { return s.hashes, s.vals, float64(s.nnz) }

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

// Score is the threshold estimate of ⟨a, b⟩, Σ matched products / τ, of
// query q against another sketch's stored sample (hashes, values, support
// size), which must be of a sketch Compatible with q: the per-pair scorer
// Estimate runs after its check and the index scan runs over packed
// samples. An empty side scores 0.
func Score(q *Sketch, tags []uint64, vals []float64, size float64) float64 {
	sum, _, tau := walk(q, tags, vals, size)
	return sum / tau
}

// JoinSize is Score for JoinSizeEstimate: matched count / τ, the
// threshold estimate of |A∩B|.
func JoinSize(q *Sketch, tags []uint64, vals []float64, size float64) float64 {
	_, matched, tau := walk(q, tags, vals, size)
	return float64(matched) / tau
}

// walk runs threshold of q against a stored sample. A support size of at
// most K means the sample holds it whole (a size is compared as a float64,
// exact below 2⁵³; a sketch holds min(size, K) pairs, so a larger size
// never ties K).
func walk(q *Sketch, tags []uint64, vals []float64, size float64) (sum float64, matched int, tau float64) {
	if q.IsEmpty() || len(tags) == 0 {
		return 0, 0, 1
	}
	k := q.params.K
	return threshold(k, q.hashes, q.vals, q.SawAll(), tags, vals, size <= float64(k))
}

// threshold is the one threshold walk over two ascending bottom-k samples,
// run by Score and JoinSize; it allocates nothing.
// Pass one walks the sorted hash streams to the k-th distinct union value,
// the threshold τ. When the union holds fewer than k values, its largest
// one is a valid, conservative threshold. τ = 1 when both sketches
// retained their full supports (aAll, bAll), and the estimates become
// exact sums. Pass two accumulates the matched value products strictly
// below the threshold in ascending hash order, and counts them.
func threshold(k int, ah []uint64, av []float64, aAll bool, bh []uint64, bv []float64, bAll bool) (sum float64, matched int, tau float64) {
	bothAll := aAll && bAll
	var tauHash uint64
	if bothAll {
		tau, tauHash = 1.0, ^uint64(0)
	} else {
		i, j, cnt := 0, 0, 0
		for cnt < k && (i < len(ah) || j < len(bh)) {
			switch {
			case j >= len(bh) || (i < len(ah) && ah[i] < bh[j]):
				tauHash = ah[i]
				i++
			case i >= len(ah) || bh[j] < ah[i]:
				tauHash = bh[j]
				j++
			default:
				tauHash = ah[i]
				i++
				j++
			}
			cnt++
		}
		tau = hashing.UnitFromBits(tauHash)
	}

	i, j := 0, 0
	for i < len(ah) && j < len(bh) {
		switch {
		case ah[i] < bh[j]:
			i++
		case ah[i] > bh[j]:
			j++
		default:
			if ah[i] < tauHash || bothAll {
				sum += av[i] * bv[j]
				matched++
			}
			i++
			j++
		}
	}
	return sum, matched, tau
}
