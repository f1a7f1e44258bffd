// Package experiments regenerates every table and figure of the paper's
// experimental evaluation (Section 5). Each experiment has a Run function
// returning a structured result, plus text and CSV renderers; cmd/experiments
// and the root bench_test.go drive them.
//
// Error metric (paper, "Estimation Error"): the absolute difference between
// ⟨a,b⟩ and the estimate, divided by ‖a‖·‖b‖, averaged over independent
// trials. Storage size: total 64-bit words in the sketch (paper, "Storage
// Size"), so sampling sketches pay 1.5 words per sample.
package experiments

import (
	"fmt"
	"math"

	ipsketch "repro"
	"repro/internal/vector"
)

// ScaledError sketches a and b with the given method and budget and
// returns |estimate − ⟨a,b⟩| / (‖a‖‖b‖).
func ScaledError(m ipsketch.Method, storage int, seed uint64, a, b vector.Sparse) (float64, error) {
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: m, StorageWords: storage, Seed: seed})
	if err != nil {
		return 0, err
	}
	sa, err := s.Sketch(a)
	if err != nil {
		return 0, err
	}
	sb, err := s.Sketch(b)
	if err != nil {
		return 0, err
	}
	est, err := ipsketch.Estimate(sa, sb)
	if err != nil {
		return 0, err
	}
	scale := a.Norm() * b.Norm()
	if scale == 0 {
		return 0, fmt.Errorf("experiments: zero-norm vector in error computation")
	}
	return math.Abs(est-vector.Dot(a, b)) / scale, nil
}

// SketchAll sketches every vector with one configuration — the catalog
// pattern the paper's applications use: sketch once, compare many pairs.
func SketchAll(m ipsketch.Method, storage int, seed uint64, vecs []vector.Sparse) ([]*ipsketch.Sketch, error) {
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: m, StorageWords: storage, Seed: seed})
	if err != nil {
		return nil, err
	}
	return s.SketchAll(vecs)
}

// PairScaledError evaluates a pre-sketched pair against the exact inner
// product of the underlying vectors.
func PairScaledError(sa, sb *ipsketch.Sketch, a, b vector.Sparse) (float64, error) {
	est, err := ipsketch.Estimate(sa, sb)
	if err != nil {
		return 0, err
	}
	scale := a.Norm() * b.Norm()
	if scale == 0 {
		return 0, fmt.Errorf("experiments: zero-norm vector in error computation")
	}
	return math.Abs(est-vector.Dot(a, b)) / scale, nil
}

// Bucket is a half-open interval [Lo, Hi) used to group pairs by a
// covariate (overlap or kurtosis) in the Figure 5 winning tables.
type Bucket struct {
	Lo, Hi float64
}

// Contains reports whether x falls in the bucket.
func (b Bucket) Contains(x float64) bool { return x >= b.Lo && x < b.Hi }

// Label formats the bucket for table headers.
func (b Bucket) Label() string {
	if math.IsInf(b.Hi, 1) {
		return fmt.Sprintf("≥%g", b.Lo)
	}
	return fmt.Sprintf("%g–%g", b.Lo, b.Hi)
}

// FindBucket returns the index of the bucket containing x, or -1.
func FindBucket(buckets []Bucket, x float64) int {
	for i, b := range buckets {
		if b.Contains(x) {
			return i
		}
	}
	return -1
}
