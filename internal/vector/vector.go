// Package vector provides the sparse vector representation shared by all
// sketches in this repository, together with the exact inner-product,
// norm, and support operations the paper's analysis is phrased in.
//
// Vectors are conceptually elements of R^n for a (possibly enormous)
// dimension n — the paper notes n = 2^32 or 2^64 is typical in dataset
// search, where indices are hashed join keys. Only non-zero entries are
// stored: a Sparse is a sorted list of (index, value) pairs plus the
// dimension.
package vector

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sparse is an immutable sparse vector: strictly increasing indices with
// non-zero finite values. The zero value is an empty vector of dimension 0.
type Sparse struct {
	n   uint64 // dimension: valid indices are [0, n)
	idx []uint64
	val []float64
}

// Errors returned by the validating constructors.
var (
	ErrIndexOutOfRange = errors.New("vector: index out of range")
	ErrUnsortedIndices = errors.New("vector: indices not strictly increasing")
	ErrNonFiniteValue  = errors.New("vector: value not finite")
	ErrLengthMismatch  = errors.New("vector: index/value length mismatch")
)

// New builds a sparse vector of dimension n from parallel index/value
// slices. Indices must be strictly increasing and < n; values must be
// finite. Zero values are dropped. The input slices are copied.
func New(n uint64, idx []uint64, val []float64) (Sparse, error) {
	if len(idx) != len(val) {
		return Sparse{}, fmt.Errorf("%w: %d indices, %d values", ErrLengthMismatch, len(idx), len(val))
	}
	s := Sparse{n: n, idx: make([]uint64, 0, len(idx)), val: make([]float64, 0, len(val))}
	for i := range idx {
		if idx[i] >= n {
			return Sparse{}, fmt.Errorf("%w: index %d ≥ dimension %d", ErrIndexOutOfRange, idx[i], n)
		}
		if i > 0 && idx[i] <= idx[i-1] {
			return Sparse{}, fmt.Errorf("%w: idx[%d]=%d after idx[%d]=%d", ErrUnsortedIndices, i, idx[i], i-1, idx[i-1])
		}
		if math.IsNaN(val[i]) || math.IsInf(val[i], 0) {
			return Sparse{}, fmt.Errorf("%w: value %v at index %d", ErrNonFiniteValue, val[i], idx[i])
		}
		if val[i] == 0 {
			continue
		}
		s.idx = append(s.idx, idx[i])
		s.val = append(s.val, val[i])
	}
	return s, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(n uint64, idx []uint64, val []float64) Sparse {
	s, err := New(n, idx, val)
	if err != nil {
		panic(err)
	}
	return s
}

// FromMap builds a sparse vector of dimension n from an index→value map.
func FromMap(n uint64, m map[uint64]float64) (Sparse, error) {
	idx := make([]uint64, 0, len(m))
	for i := range m {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, len(idx))
	for i, ix := range idx {
		val[i] = m[ix]
	}
	return New(n, idx, val)
}

// Dim returns the vector's dimension n.
func (s Sparse) Dim() uint64 { return s.n }

// NNZ returns the number of stored (non-zero) entries, |A| in the paper.
func (s Sparse) NNZ() int { return len(s.idx) }

// IsEmpty reports whether the vector has no non-zero entries.
func (s Sparse) IsEmpty() bool { return len(s.idx) == 0 }

// At returns the value at index i (0 for indices outside the support).
// It panics if i ≥ Dim.
func (s Sparse) At(i uint64) float64 {
	if i >= s.n {
		panic(fmt.Sprintf("vector: At(%d) out of range for dimension %d", i, s.n))
	}
	k := sort.Search(len(s.idx), func(j int) bool { return s.idx[j] >= i })
	if k < len(s.idx) && s.idx[k] == i {
		return s.val[k]
	}
	return 0
}

// Entry returns the k-th stored entry in index order.
func (s Sparse) Entry(k int) (index uint64, value float64) {
	return s.idx[k], s.val[k]
}

// Range calls fn for every stored entry in increasing index order; fn
// returning false stops the iteration.
func (s Sparse) Range(fn func(index uint64, value float64) bool) {
	for k := range s.idx {
		if !fn(s.idx[k], s.val[k]) {
			return
		}
	}
}

// Dense materializes the vector as a dense slice. It panics for dimensions
// over 2^26 (a guard against accidentally materializing hashed-key domains).
func (s Sparse) Dense() []float64 {
	const limit = 1 << 26
	if s.n > limit {
		panic(fmt.Sprintf("vector: refusing to materialize dimension %d (> %d)", s.n, limit))
	}
	d := make([]float64, s.n)
	for k, ix := range s.idx {
		d[ix] = s.val[k]
	}
	return d
}

// Shard returns a read-only view of the stored entries [lo, hi) as a
// vector of the same dimension: the restriction of s to its lo-th through
// (hi−1)-th support entries. Shards of a partition have pairwise disjoint
// supports and sum to s, which is what makes them the unit of mergeable
// sketch construction. The view aliases s's storage (vectors are
// immutable, so sharing is safe); it panics when the range is out of
// bounds, mirroring slice semantics.
func (s Sparse) Shard(lo, hi int) Sparse {
	return Sparse{n: s.n, idx: s.idx[lo:hi], val: s.val[lo:hi]}
}

// Clone returns a deep copy.
func (s Sparse) Clone() Sparse {
	return Sparse{
		n:   s.n,
		idx: append([]uint64(nil), s.idx...),
		val: append([]float64(nil), s.val...),
	}
}

// Equal reports exact equality of dimension, support, and values.
func (s Sparse) Equal(t Sparse) bool {
	if s.n != t.n || len(s.idx) != len(t.idx) {
		return false
	}
	for k := range s.idx {
		if s.idx[k] != t.idx[k] || s.val[k] != t.val[k] {
			return false
		}
	}
	return true
}

// Scale returns c·s. Scaling by zero returns the empty vector.
func (s Sparse) Scale(c float64) Sparse {
	if c == 0 {
		return Sparse{n: s.n}
	}
	out := s.Clone()
	for k := range out.val {
		out.val[k] *= c
	}
	return out
}

// Map returns a copy with fn applied to every stored value; entries mapped
// to zero are dropped. Useful for building the squared-value vectors the
// paper uses for post-join variance estimation (S((x_V)²)).
func (s Sparse) Map(fn func(float64) float64) Sparse {
	out := Sparse{n: s.n}
	for k := range s.idx {
		if v := fn(s.val[k]); v != 0 {
			out.idx = append(out.idx, s.idx[k])
			out.val = append(out.val, v)
		}
	}
	return out
}

// String renders small vectors for debugging.
func (s Sparse) String() string {
	if len(s.idx) > 16 {
		return fmt.Sprintf("Sparse(n=%d, nnz=%d)", s.n, len(s.idx))
	}
	out := fmt.Sprintf("Sparse(n=%d){", s.n)
	for k := range s.idx {
		if k > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d:%g", s.idx[k], s.val[k])
	}
	return out + "}"
}
