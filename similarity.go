package ipsketch

import (
	"errors"
	"fmt"
)

// Beyond inner products, the hash-based sketches natively estimate set
// similarities and cardinalities — the primitives of joinability search
// (paper §1.2: "discover tables that are joinable with the target table").
// Which methods support which estimator is an optional field of the
// backend descriptor (jaccard, signature, supportSize, unionSize in
// backend.go): a method that sets the field works here automatically,
// every other method gets a uniform "cannot estimate" error.

// EstimateJaccard estimates a similarity between the sketched vectors:
//
//   - MethodMH, MethodKMV: the Jaccard similarity |A∩B|/|A∪B| of the
//     supports (key sets, for key-indicator vectors).
//   - MethodWMH, MethodICWS: the weighted Jaccard similarity
//     Σmin(ã²,b̃²)/Σmax(ã²,b̃²) of the squared normalized vectors.
//
// Other methods cannot estimate similarities and return an error.
func EstimateJaccard(a, b *Sketch) (float64, error) {
	be, err := pairBackend(a, b)
	if err != nil {
		return 0, err
	}
	if be.jaccard == nil {
		return 0, fmt.Errorf("ipsketch: %v sketches cannot estimate Jaccard similarity", a.method)
	}
	if err := be.compatible(a.payload, b.payload); err != nil {
		return 0, err
	}
	return be.jaccard(a.payload, b.payload)
}

// ErrNoSignature reports that a sketch's method cannot produce an LSH
// signature (its samples are not minwise, so entry collisions carry no
// similarity semantics).
var ErrNoSignature = errors.New("ipsketch: method has no LSH signature")

// LSHSignature returns the sketch's banding signature: per-sample minima
// whose entries collide across two sketches of the same configuration
// with probability equal to the (weighted) Jaccard similarity, the input
// contract of internal/lsh. Supported by MethodMH and MethodWMH (all
// variants). An empty sketch returns (nil, nil) — empty columns cannot be
// banded and must be skipped by indexers, not treated as wildcards.
func (sk *Sketch) LSHSignature() ([]uint64, error) {
	if sk == nil {
		return nil, errNilSketch
	}
	be, err := backendFor(sk.method)
	if err != nil {
		return nil, err
	}
	if be.signature == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSignature, sk.method)
	}
	return be.signature(sk.payload)
}

// EstimateSupportSize estimates the number of non-zero entries of the
// sketched vector (the distinct-key count for key-indicator vectors).
// Supported by MethodMH and MethodKMV.
func EstimateSupportSize(sk *Sketch) (float64, error) {
	if sk == nil {
		return 0, errNilSketch
	}
	be, err := backendFor(sk.method)
	if err != nil {
		return 0, err
	}
	if be.supportSize == nil {
		return 0, fmt.Errorf("ipsketch: %v sketches cannot estimate support size", sk.method)
	}
	return be.supportSize(sk.payload)
}

// EstimateUnionSize estimates |A∪B| of the two sketched supports.
// Supported by MethodMH and MethodKMV.
func EstimateUnionSize(a, b *Sketch) (float64, error) {
	be, err := pairBackend(a, b)
	if err != nil {
		return 0, err
	}
	if be.unionSize == nil {
		return 0, fmt.Errorf("ipsketch: %v sketches cannot estimate union size", a.method)
	}
	if err := be.compatible(a.payload, b.payload); err != nil {
		return 0, err
	}
	return be.unionSize(a.payload, b.payload)
}
