package wmh

import (
	"math"

	"repro/internal/vector"
)

// This file implements paper Algorithm 4 (vector rounding) in exact integer
// arithmetic.
//
// Algorithm 4 takes the unit vector z = a/‖a‖ and produces ž with ž[i]² an
// integer multiple of 1/L: every entry is rounded *down* to the nearest
// multiple, except the largest-magnitude entry, which absorbs the remaining
// mass δ = 1 − ‖ž‖² so that ž stays a unit vector. Rounding down everywhere
// (instead of to-nearest) is what lets the paper bound the error
// multiplicatively (Lemma 3) rather than additively in 1/L.
//
// We never materialize ž as floats. Instead we compute the integer weights
//
//	w_j = ⌊ (a[j]²/‖a‖²) · L ⌋,   then   w_argmax += L − Σ w_j,
//
// so that Σ_j w_j = L exactly. The rounded entry is ž[j] =
// sign(a[j])·sqrt(w_j/L), and the expanded vector of Algorithm 3 has
// exactly w_j active slots in block j — in total exactly L active slots for
// every sketched vector, an invariant the tests rely on.

// MaxL is the largest supported discretization parameter. Products w_j =
// frac·L are computed in float64, which is exact for integers below 2^53;
// we stay well under that.
const MaxL uint64 = 1 << 50

// DefaultL returns the discretization parameter used when Params.L == 0:
// 4096·dim, clamped to [2^12, MaxL]. The paper requires L > n and
// recommends a multiplicative factor of 100–1000 ("Choice of L", §5); 4096
// keeps the entry-level rounding error below 2.5·10⁻⁴ of the average
// squared entry even for dense vectors.
func DefaultL(dim uint64) uint64 {
	if dim == 0 {
		return 1 << 12
	}
	if dim > MaxL/4096 {
		return MaxL
	}
	l := 4096 * dim
	if l < 1<<12 {
		return 1 << 12
	}
	return l
}

// Round computes the integer block weights of Algorithm 4 for vector v:
// parallel slices of support indices and positive weights w_j with
// Σ w_j = L. Entries whose squared normalized value is below 1/L round to
// weight 0 and are omitted (the paper's "entries with value ≲ 1/L get
// rounded to 0"). The largest-magnitude entry absorbs the leftover mass.
//
// Round panics if L == 0 or L > MaxL; an empty vector yields empty slices.
func Round(v vector.Sparse, l uint64) (idx []uint64, weights []uint64) {
	return RoundInto(v, l, nil, nil)
}

// RoundInto is Round writing into the (possibly nil) scratch slices idxBuf
// and weightBuf, which are truncated and grown as needed. It returns the
// filled slices; callers that retain them across invocations (the Builder's
// zero-allocation path) must treat the previous contents as overwritten.
func RoundInto(v vector.Sparse, l uint64, idxBuf, weightBuf []uint64) (idx []uint64, weights []uint64) {
	if l == 0 || l > MaxL {
		panic("wmh: discretization parameter L out of range")
	}
	if v.IsEmpty() {
		return idxBuf[:0], weightBuf[:0]
	}
	normSq := v.SquaredNorm()
	nnz := v.NNZ()
	idx = idxBuf[:0]
	weights = weightBuf[:0]
	if cap(idx) < nnz {
		idx = make([]uint64, 0, nnz)
	}
	if cap(weights) < nnz {
		weights = make([]uint64, 0, nnz)
	}

	// First pass: floor every squared normalized entry to a multiple of
	// 1/L, remembering the largest-magnitude entry (paper line 2).
	var total uint64
	argmaxPos := -1 // position within the output slices
	argmaxAbs := -1.0
	argmaxIdx := uint64(0)
	seenArgmax := false
	v.Range(func(i uint64, val float64) bool {
		av := math.Abs(val)
		if av > argmaxAbs {
			argmaxAbs = av
			argmaxIdx = i
			seenArgmax = true
		}
		w := uint64(val * val / normSq * float64(l))
		if w == 0 {
			return true
		}
		if w > l {
			w = l // guard against float rounding above 1.0·L
		}
		idx = append(idx, i)
		weights = append(weights, w)
		total += w
		return true
	})
	_ = seenArgmax

	// Locate (or insert) the argmax entry in the output, then reconcile
	// Σ w_j with L. The deficit is non-negative in exact arithmetic; float
	// rounding can make it slightly negative, in which case we shave the
	// excess off the largest weights.
	for p := range idx {
		if idx[p] == argmaxIdx {
			argmaxPos = p
			break
		}
	}
	if total < l {
		deficit := l - total
		if argmaxPos < 0 {
			// The largest entry itself floored to zero (possible only for
			// near-uniform tiny vectors with L < nnz): insert it.
			idx, weights, argmaxPos = insertSorted(idx, weights, argmaxIdx)
		}
		weights[argmaxPos] += deficit
	} else if total > l {
		excess := total - l
		for excess > 0 {
			p := maxWeightPos(weights)
			take := excess
			if take >= weights[p] {
				take = weights[p] - 1 // never delete the largest block
			}
			if take == 0 {
				break
			}
			weights[p] -= take
			excess -= take
		}
	}
	return idx, weights
}

// insertSorted inserts index i with weight 0 keeping idx sorted, and
// returns the new slices plus the insertion position.
func insertSorted(idx []uint64, weights []uint64, i uint64) ([]uint64, []uint64, int) {
	p := 0
	for p < len(idx) && idx[p] < i {
		p++
	}
	idx = append(idx, 0)
	weights = append(weights, 0)
	copy(idx[p+1:], idx[p:])
	copy(weights[p+1:], weights[p:])
	idx[p] = i
	weights[p] = 0
	return idx, weights, p
}

func maxWeightPos(weights []uint64) int {
	best := 0
	for p, w := range weights {
		if w > weights[best] {
			best = p
		}
	}
	return best
}
