// Package ipsketch is a library for estimating inner products between
// high-dimensional sparse vectors from small, independently computed
// sketches. It implements the PODS 2023 paper "Weighted Minwise Hashing
// Beats Linear Sketching for Inner Product Estimation" (Bessa, Daliri,
// Freire, Musco, Musco, Santos, Zhang; arXiv:2301.05811): the paper's
// Weighted MinHash sketch (Algorithms 3–5) plus every baseline from its
// experimental evaluation, plus the priority/threshold sampling sketches
// of the follow-up "Sampling Methods for Inner Product Sketching"
// (arXiv:2309.16157), behind one interface.
//
// # Quick start
//
//	cfg := ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 1}
//	sk, _ := ipsketch.NewSketcher(cfg)
//	sa, _ := sk.Sketch(a) // a, b are ipsketch.Vector values
//	sb, _ := sk.Sketch(b)
//	est, _ := ipsketch.Estimate(sa, sb) // ≈ ⟨a, b⟩
//
// Sketches are comparable only when produced by sketchers with identical
// configurations (method, size, seed, L, and the Quantize and Dart
// flags); Estimate rejects incompatible pairs. They can be computed on different machines at
// different times: all randomness is derived from the seed.
//
// # Methods and guarantees
//
// With a sketch of O(1/ε²) words, the additive error of the estimate is,
// with constant probability (boost with MedianSketcher):
//
//	MethodJL, MethodCountSketch:  ε‖a‖‖b‖              (Fact 1)
//	MethodMH (binary vectors):    ε√(max(|A|,|B|)·|A∩B|) (Theorem 4)
//	MethodWMH (any vectors):      ε·max(‖a_I‖‖b‖, ‖a‖‖b_I‖) (Theorem 2)
//	MethodPS, MethodTS:           ε·‖a_I‖‖b_I‖ (follow-up paper, Thm 1.1/4.1)
//
// where I is the intersection of the supports. The WMH bound is never
// worse than the linear-sketching bound and is far smaller for sparse
// vectors with limited overlap — the common case in dataset search; the
// priority/threshold sampling bound is smaller still whenever either
// vector has mass outside the intersection.
//
// # Storage accounting
//
// Config.StorageWords is the total budget in 64-bit words, following the
// paper's accounting so methods are compared fairly at equal storage:
// linear sketches spend one word per coordinate; sampling sketches spend
// 1.5 words per sample (a 32-bit hash plus a 64-bit value).
//
// # Architecture
//
// Every method is one backend descriptor (backend.go): a struct of
// function fields lifted from the method's internal package, with one
// optional field per capability (merge, join size, Jaccard,
// cardinalities, error bounds, LSH signatures, the columnar scan family)
// that is nil when the method lacks it. Construction, estimation,
// batching, serialization, and similarity all resolve the descriptor and
// call or test its fields. Adding a method is one internal package plus
// one descriptor — see DESIGN.md §2.
package ipsketch

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/linear"
	"repro/internal/vector"
	"repro/internal/wmh"
)

// Vector is a sparse vector: a dimension plus sorted (index, value) pairs.
// See NewVector, VectorFromMap, and VectorFromDense.
type Vector = vector.Sparse

// NewVector builds a Vector of the given dimension from parallel slices of
// strictly increasing indices and finite values (zeros are dropped).
func NewVector(dim uint64, idx []uint64, vals []float64) (Vector, error) {
	return vector.New(dim, idx, vals)
}

// VectorFromMap builds a Vector from an index→value map.
func VectorFromMap(dim uint64, m map[uint64]float64) (Vector, error) {
	return vector.FromMap(dim, m)
}

// VectorFromDense builds a Vector from a dense slice.
func VectorFromDense(d []float64) (Vector, error) {
	return vector.FromDense(d)
}

// Dot returns the exact inner product ⟨a, b⟩ (for ground truth and tests).
func Dot(a, b Vector) float64 { return vector.Dot(a, b) }

// LinearSketchBound returns ‖a‖‖b‖, the Fact 1 error scale.
func LinearSketchBound(a, b Vector) float64 { return vector.LinearSketchBound(a, b) }

// WMHBound returns max(‖a_I‖‖b‖, ‖a‖‖b_I‖), the Theorem 2 error scale.
func WMHBound(a, b Vector) float64 { return vector.WMHBound(a, b) }

// Method selects a sketching algorithm.
type Method int

// Available methods. The first five are the paper's experimental lineup;
// MethodSimHash is an extension, and MethodPS / MethodTS are the follow-up
// paper's sampling sketches (see DESIGN.md §2).
const (
	// MethodWMH is the paper's Weighted MinHash sketch (Algorithms 3–5).
	MethodWMH Method = iota
	// MethodMH is unweighted augmented MinHash (Algorithms 1–2).
	MethodMH
	// MethodKMV is the K-Minimum-Values bottom-k sketch.
	MethodKMV
	// MethodJL is Johnson–Lindenstrauss / AMS random ±1 projection.
	MethodJL
	// MethodCountSketch is CountSketch with median-of-5 repetitions.
	MethodCountSketch
	// methodICWSRemoved holds the slot of the retired ICWS method (Ioffe's
	// consistent weighted sampling), so the methods after it keep their
	// envelope bytes. It has no descriptor: Methods skips it and decoding
	// its method byte fails with errICWSRemoved.
	methodICWSRemoved
	// MethodSimHash is the 1-bit quantized random projection.
	MethodSimHash
	// MethodPS is coordinated priority sampling: the k smallest ranks
	// h(j)/a[j]² plus their threshold (follow-up paper, Algorithm 2).
	MethodPS
	// MethodTS is coordinated threshold sampling: every index whose shared
	// hash clears its inclusion probability min(1, k·a[j]²/‖a‖²)
	// (follow-up paper, Algorithm 1).
	MethodTS
	numMethods
)

// String names the method as in the papers' plots.
func (m Method) String() string {
	if be, err := backendFor(m); err == nil {
		return be.name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// MarshalText returns the method's name, so a Method is a text flag.
func (m Method) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a method name as String prints it, ignoring case.
// It is the one parser of method names.
func (m *Method) UnmarshalText(text []byte) error {
	names := make([]string, 0, numMethods)
	for _, c := range Methods() {
		if strings.EqualFold(c.String(), string(text)) {
			*m = c
			return nil
		}
		names = append(names, c.String())
	}
	return fmt.Errorf("ipsketch: unknown method %q (want one of %s)", text, strings.Join(names, ", "))
}

// Methods returns every available method.
func Methods() []Method {
	out := make([]Method, 0, numMethods)
	for m := Method(0); m < numMethods; m++ {
		if backends[m] != nil {
			out = append(out, m)
		}
	}
	return out
}

// PaperMethods returns the paper's experimental lineup in plot order:
// JL, CS, MH, KMV, WMH.
func PaperMethods() []Method {
	return []Method{MethodJL, MethodCountSketch, MethodMH, MethodKMV, MethodWMH}
}

// Config configures a Sketcher.
type Config struct {
	// Method selects the algorithm.
	Method Method
	// StorageWords is the total sketch budget in 64-bit words (see the
	// package comment for the per-method accounting).
	StorageWords int
	// Seed derives all randomness; sketchers with different seeds produce
	// incomparable sketches.
	Seed uint64
	// L is the WMH discretization parameter (0 = automatic). Ignored by
	// other methods.
	L uint64
	// Reps is the CountSketch repetition count (0 = the paper's 5).
	// Ignored by other methods.
	Reps int
	// Quantize stores sample values in 32 bits instead of 64 for methods
	// that support it (currently WMH), lowering the per-sample cost from
	// 1.5 words to 1 — i.e. 50% more samples in the same budget at a
	// negligible (~1e-7 relative) precision cost. The paper's storage
	// discussion names this as the natural next optimization. Validate
	// rejects the flag for methods without the capability.
	Quantize bool
	// Dart selects the dart-throwing construction for methods that
	// support it (currently WMH): all samples are computed in one pass
	// over the vector's support at expected O(nnz + m·log m) cost instead
	// of O(nnz·m·log L) — two to three orders of magnitude faster at
	// production sample counts, with an estimate distribution identical
	// to the default construction (see DESIGN.md §9). Dart sketches use
	// different randomness and are comparable only with dart sketches.
	// Validate rejects the flag for methods without the capability.
	Dart bool
}

// countSketchReps resolves the CountSketch repetition count (the paper's 5
// when Reps is zero). Both size derivation and construction go through
// this single helper so the two can never drift.
func (c Config) countSketchReps() int {
	if c.Reps == 0 {
		return linear.DefaultReps
	}
	return c.Reps
}

// wmhParams derives the WMH construction parameters for a sketcher of the
// given sample count.
func (c Config) wmhParams(samples int) wmh.Params {
	return wmh.Params{
		M: samples, Seed: c.Seed, L: c.L,
		QuantizeValues: c.Quantize, Dart: c.Dart,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	be, err := backendFor(c.Method)
	if err != nil {
		return err
	}
	if c.StorageWords <= 0 {
		return errors.New("ipsketch: storage budget must be positive")
	}
	if c.Quantize && !be.quantize {
		return fmt.Errorf("ipsketch: %v does not support Quantize", c.Method)
	}
	if c.Dart && !be.dart {
		return fmt.Errorf("ipsketch: %v does not support Dart", c.Method)
	}
	if _, err := be.size(c); err != nil {
		return err
	}
	return nil
}

// Sketcher produces sketches under a fixed configuration. It is safe for
// concurrent use: every construction path draws a per-goroutine builder
// from an internal pool, so construction scratch is reused across calls
// without sharing.
type Sketcher struct {
	cfg  Config
	be   *backend
	size int       // method-specific size derived from the budget
	pool sync.Pool // builder: per-goroutine construction scratch, reused across calls
}

// NewSketcher validates the configuration and returns a sketcher.
func NewSketcher(cfg Config) (*Sketcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	be, err := backendFor(cfg.Method)
	if err != nil {
		return nil, err
	}
	size, err := be.size(cfg)
	if err != nil {
		return nil, err
	}
	return &Sketcher{cfg: cfg, be: be, size: size}, nil
}

// Config returns the sketcher's configuration.
func (s *Sketcher) Config() Config { return s.cfg }

// Size returns the derived method-specific size parameter: samples for
// sampling sketches, rows for JL, buckets per repetition for CountSketch,
// bits for SimHash.
func (s *Sketcher) Size() int { return s.size }

// Sketch is a compact summary of one vector, produced by a Sketcher: the
// method tag plus that method's backend payload.
type Sketch struct {
	method  Method
	payload payload
}

// Sketch summarizes the vector v with a pooled builder, so one-off calls
// reuse construction scratch exactly as the batch paths do.
func (s *Sketcher) Sketch(v Vector) (*Sketch, error) {
	b, err := s.getBuilder()
	if err != nil {
		return nil, err
	}
	defer s.putBuilder(b)
	return s.build(b, v)
}

// Method returns the algorithm that produced the sketch.
func (sk *Sketch) Method() Method { return sk.method }

// StorageWords returns the sketch's size in 64-bit words under the paper's
// accounting.
func (sk *Sketch) StorageWords() float64 {
	if sk.payload == nil {
		return 0
	}
	return sk.payload.StorageWords()
}

// Compatible reports why two sketches cannot be compared — a nil sketch,
// a method mismatch, or a construction-parameter/seed/variant mismatch —
// or nil when Estimate would accept the pair. It runs the same checks the
// estimators run, without touching estimator math, so catalogs can reject
// incomparable sketches eagerly at ingest time instead of failing
// mid-search.
func Compatible(a, b *Sketch) error {
	be, err := pairBackend(a, b)
	if err != nil {
		return err
	}
	return be.compatible(a.payload, b.payload)
}

// Estimate returns the inner-product estimate from two sketches of the
// same configuration. It fails when the sketches were produced by
// different methods or incompatible parameters (size, seed, or variant
// mismatches never return silent garbage).
func Estimate(a, b *Sketch) (float64, error) {
	be, err := pairBackend(a, b)
	if err != nil {
		return 0, err
	}
	return be.estimate(a.payload, b.payload)
}

// EstimateJoinSize estimates |A∩B| for key-indicator vectors (binary
// vectors whose 1-entries are join keys): it is Estimate specialized to
// the dataset-search join-size reduction of §1.2. Backends with a
// dedicated join-size estimator (KMV's threshold estimator, which ignores
// values) are used when available.
func EstimateJoinSize(a, b *Sketch) (float64, error) {
	be, err := pairBackend(a, b)
	if err != nil {
		return 0, err
	}
	if be.joinSize == nil {
		return be.estimate(a.payload, b.payload)
	}
	return be.joinSize(a.payload, b.payload)
}

// EstimateWithBound returns the inner-product estimate together with a
// data-driven error scale: errScale estimates the Theorem 2 magnitude
// max(‖a_I‖‖b‖, ‖a‖‖b_I‖)/√m, so |estimate − ⟨a,b⟩| is O(errScale) with
// constant probability (use MedianSketcher to drive the failure
// probability down). Only backends that can estimate their own bound
// (currently MethodWMH) support this.
func EstimateWithBound(a, b *Sketch) (estimate, errScale float64, err error) {
	be, err := pairBackend(a, b)
	if err != nil {
		return 0, 0, err
	}
	if be.withBound == nil {
		return 0, 0, fmt.Errorf("ipsketch: EstimateWithBound requires a self-bounding method (e.g. WMH), got %v", a.method)
	}
	if err := be.compatible(a.payload, b.payload); err != nil {
		return 0, 0, err
	}
	return be.withBound(a.payload, b.payload)
}
