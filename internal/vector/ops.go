package vector

import "math"

// This file holds the exact pairwise operations the paper's guarantees are
// phrased in: inner products, norms, support intersection I, the restricted
// vectors a_I / b_I, and the theoretical error bounds of Table 1.

// Dot returns the exact inner product ⟨a, b⟩. Vectors of different
// dimensions are rejected by panicking: sketching different domains against
// each other is a programming error, not a data condition.
func Dot(a, b Sparse) float64 {
	if a.n != b.n {
		panic("vector: Dot of vectors with different dimensions")
	}
	sum := 0.0
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			sum += a.val[i] * b.val[j]
			i++
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm ‖s‖.
func (s Sparse) Norm() float64 {
	sum := 0.0
	for _, v := range s.val {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// SquaredNorm returns ‖s‖².
func (s Sparse) SquaredNorm() float64 {
	sum := 0.0
	for _, v := range s.val {
		sum += v * v
	}
	return sum
}

// Norm1 returns the ℓ1 norm Σ|s[i]|.
func (s Sparse) Norm1() float64 {
	sum := 0.0
	for _, v := range s.val {
		sum += math.Abs(v)
	}
	return sum
}

// NormInf returns the ℓ∞ norm max|s[i]|.
func (s Sparse) NormInf() float64 {
	m := 0.0
	for _, v := range s.val {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Normalize returns s/‖s‖ as a unit vector. The empty vector normalizes to
// itself.
func (s Sparse) Normalize() Sparse {
	n := s.Norm()
	if n == 0 {
		return s.Clone()
	}
	return s.Scale(1 / n)
}

// SupportIntersection returns the sorted indices of I = {i : a[i]≠0 ∧ b[i]≠0}.
func SupportIntersection(a, b Sparse) []uint64 {
	var out []uint64
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			out = append(out, a.idx[i])
			i++
			j++
		}
	}
	return out
}

// SupportUnionSize returns |A ∪ B| for the supports of a and b.
func SupportUnionSize(a, b Sparse) int {
	i, j, n := 0, 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + (len(a.idx) - i) + (len(b.idx) - j)
}

// SupportIntersectionSize returns |A ∩ B|.
func SupportIntersectionSize(a, b Sparse) int {
	i, j, n := 0, 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns |A∩B| / |A∪B| for the supports (0 if both are empty).
func Jaccard(a, b Sparse) float64 {
	u := SupportUnionSize(a, b)
	if u == 0 {
		return 0
	}
	return float64(SupportIntersectionSize(a, b)) / float64(u)
}

// WeightedJaccard returns Σ min(a[i]², b[i]²) / Σ max(a[i]², b[i]²), the
// quantity J̄ from Fact 5 of the paper (applied to the raw, un-normalized
// entries). Returns 0 when both vectors are empty.
func WeightedJaccard(a, b Sparse) float64 {
	minSum, maxSum := 0.0, 0.0
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			maxSum += a.val[i] * a.val[i]
			i++
		case a.idx[i] > b.idx[j]:
			maxSum += b.val[j] * b.val[j]
			j++
		default:
			av, bv := a.val[i]*a.val[i], b.val[j]*b.val[j]
			minSum += math.Min(av, bv)
			maxSum += math.Max(av, bv)
			i++
			j++
		}
	}
	for ; i < len(a.idx); i++ {
		maxSum += a.val[i] * a.val[i]
	}
	for ; j < len(b.idx); j++ {
		maxSum += b.val[j] * b.val[j]
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// Restrict returns the vector restricted to the given sorted index set
// (entries outside the set are dropped). Used to form a_I and b_I.
func (s Sparse) Restrict(indices []uint64) Sparse {
	out := Sparse{n: s.n}
	i, j := 0, 0
	for i < len(s.idx) && j < len(indices) {
		switch {
		case s.idx[i] < indices[j]:
			i++
		case s.idx[i] > indices[j]:
			j++
		default:
			out.idx = append(out.idx, s.idx[i])
			out.val = append(out.val, s.val[i])
			i++
			j++
		}
	}
	return out
}

// IntersectionNorms returns (‖a_I‖, ‖b_I‖) for I = supp(a) ∩ supp(b),
// computed in one merge pass.
func IntersectionNorms(a, b Sparse) (normAI, normBI float64) {
	sa, sb := 0.0, 0.0
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			sa += a.val[i] * a.val[i]
			sb += b.val[j] * b.val[j]
			i++
			j++
		}
	}
	return math.Sqrt(sa), math.Sqrt(sb)
}

// LinearSketchBound returns ‖a‖·‖b‖, the scale of the Fact 1 error
// guarantee ε‖a‖‖b‖ for JL/AMS/CountSketch.
func LinearSketchBound(a, b Sparse) float64 {
	return a.Norm() * b.Norm()
}

// WMHBound returns max(‖a_I‖‖b‖, ‖a‖‖b_I‖), the scale of the Theorem 2
// error guarantee for Weighted MinHash. Always ≤ LinearSketchBound.
func WMHBound(a, b Sparse) float64 {
	nAI, nBI := IntersectionNorms(a, b)
	return math.Max(nAI*b.Norm(), a.Norm()*nBI)
}

// MHBound returns c²·sqrt(max(|A|,|B|)·|A∩B|), the scale of the Theorem 4
// error guarantee for unweighted MinHash on vectors bounded in [−c, c].
// c is taken as max(‖a‖∞, ‖b‖∞).
func MHBound(a, b Sparse) float64 {
	c := math.Max(a.NormInf(), b.NormInf())
	inter := float64(SupportIntersectionSize(a, b))
	larger := math.Max(float64(a.NNZ()), float64(b.NNZ()))
	return c * c * math.Sqrt(larger*inter)
}
