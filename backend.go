package ipsketch

import (
	"errors"
	"fmt"
)

// errNilSketch rejects nil sketches at every estimator entry point.
var errNilSketch = errors.New("ipsketch: nil sketch")

// This file is the method-dispatch substrate of the package: a registry of
// per-method-family backends behind one narrow interface. Every public
// entry point (construction, estimation, batching, serialization,
// similarity) routes through the registry, so adding a sketching method is
// one backend file that calls register — no switch statement anywhere in
// the public API grows a case. Optional estimator surfaces (join size,
// Jaccard, cardinalities, error bounds) are capability interfaces asserted
// at the call site, so they extend automatically to any backend that
// implements them.

// payload is the method-specific content of a Sketch. Concrete types live
// in the internal sketch packages; the public Sketch wraps exactly one.
type payload interface {
	// StorageWords is the sketch size in 64-bit words under the paper's
	// accounting.
	StorageWords() float64
	// MarshalBinary encodes the method payload (without the envelope).
	MarshalBinary() ([]byte, error)
}

// builder constructs sketches one at a time with reusable scratch. A
// builder is single-goroutine; every construction entry point draws one
// from the sketcher's pool, and batch APIs run one per worker.
type builder interface {
	sketch(v Vector) (payload, error)
}

// builderOf adapts a family's typed construction function — a reusable
// internal Builder's Sketch method, or a closure over a one-shot
// constructor for the scratch-free linear families — to builder.
type builderOf[T payload] func(Vector) (T, error)

func (f builderOf[T]) sketch(v Vector) (payload, error) {
	sk, err := f(v)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// backend implements one method family. Implementations are registered at
// init time, exactly one per Method value.
type backend interface {
	// name is the method's display name (as in the paper's plots).
	name() string
	// size derives the method-specific size parameter (samples, rows,
	// buckets, bits) from the configured storage budget.
	size(cfg Config) (int, error)
	// newBuilder returns a fresh builder for the configuration — the one
	// way to construct a sketch. Builders own all construction scratch, so
	// the steady state allocates only the returned sketches, and decide by
	// themselves when one vector is worth fanning out across cores.
	newBuilder(cfg Config, size int) (builder, error)
	// compatible reports why two payloads of this backend cannot be
	// compared (construction parameter, seed, or variant mismatch), or nil.
	compatible(a, b payload) error
	// estimate returns the inner-product estimate. Dispatch runs
	// compatible first, but implementations still verify their inputs
	// (the internal estimators own that invariant; the pre-check exists
	// so every public entry point fails before touching estimator math).
	estimate(a, b payload) (float64, error)
	// unmarshal decodes a payload from its serialized form. The wire
	// format of a registered method is frozen (see testdata/golden).
	unmarshal(data []byte) (payload, error)
}

// Optional backend capabilities. A backend advertises an extra estimator
// surface by implementing the interface; callers assert, so new backends
// pick these up with zero dispatch-site changes.

// joinSizeEstimator is implemented by backends with a dedicated |A∩B|
// estimator that beats the generic inner-product reduction.
type joinSizeEstimator interface {
	estimateJoinSize(a, b payload) (float64, error)
}

// similarityEstimator is implemented by backends whose samples estimate a
// (possibly weighted) Jaccard similarity.
type similarityEstimator interface {
	estimateJaccard(a, b payload) (float64, error)
}

// signatureSketcher is implemented by backends whose samples double as an
// LSH signature: entries of two signatures built under the same Config
// collide with probability equal to the (weighted) Jaccard similarity of
// the sketched vectors, making them bandable by internal/lsh. An empty
// sketch yields a nil signature — empty columns are unbandable, not
// wildcard matches.
type signatureSketcher interface {
	signature(p payload) ([]uint64, error)
}

// cardinalityEstimator is implemented by backends whose hashes double as
// distinct-count estimators for supports and support unions.
type cardinalityEstimator interface {
	estimateSupportSize(p payload) (float64, error)
	estimateUnionSize(a, b payload) (float64, error)
}

// errorBounder is implemented by backends whose sketches carry enough
// information to estimate their own error scale.
type errorBounder interface {
	estimateWithBound(a, b payload) (estimate, errScale float64, err error)
}

// merger is implemented by backends whose sketches can be merged: the
// merge of two payloads summarizes the union (min-based families) or sum
// (linear families) of the sketched vectors. Dispatch runs compatible
// before merge, mirroring estimate.
type merger interface {
	merge(a, b payload) (payload, error)
}

// shardSketcher is implemented by backends whose construction normalizes
// by the vector's own statistics (WMH's rounded blocks, ICWS's weights):
// mergeable partials of one vector must be built against the parent's
// normalization, which only a construction-time sharding path can do. The
// dispatch layer slices the support generically for every other mergeable
// backend.
type shardSketcher interface {
	sketchShards(cfg Config, size int, v Vector, n int) ([]payload, error)
}

// quantizable is implemented by backends that honor Config.Quantize;
// Config.Validate rejects the flag for any other method instead of
// silently ignoring it.
type quantizable interface {
	quantizable()
}

// dartHashable is implemented by backends that honor Config.Dart;
// Config.Validate rejects the flag for any other method instead of
// silently ignoring it.
type dartHashable interface {
	dartHashable()
}

// columnarScorer is implemented by backends that can pack many sketches
// into contiguous structure-of-arrays storage and score them against a
// pre-decoded query with a flat-array kernel — the search-side hot path.
// Families without the capability transparently fall back to the decoded
// per-candidate scorer, bit-identically. Every implementation is a
// packFamily descriptor (columnar.go) behind these two methods.
type columnarScorer interface {
	newColumnarPack() columnarPack
	// prepareQuery pre-decodes one query bundle (key, value, squared-value
	// payloads of the query column) once per search, independent of any
	// pack, so a search over many index snapshots decodes its query once.
	// nil means the payloads do not belong to this family.
	prepareQuery(qKey, qVal, qSq payload) columnarQuery
}

// columnarQuery is a family's pre-decoded query bundle; only the packs of
// the family that prepared it look inside.
type columnarQuery any

// columnarPack accumulates table-sketch bundles of one family into flat
// arrays at index build time. The first accepted payload pins the
// construction parameters; addTable rejects any bundle that the pinned
// parameters cannot score, and an index holding one gets no view.
type columnarPack interface {
	// addTable appends one table's key-sketch payload plus the per-column
	// value and squared-value payloads (parallel slices), reporting
	// whether the bundle was packed.
	addTable(key payload, vals, sqs []payload) bool
	// accepts reports whether q can be scored against the packed
	// parameters. When it cannot, the whole scan of this pack's index
	// falls back to the decoded scorer. It allocates nothing.
	accepts(q columnarQuery) bool
	// scan fills the estimates pl names for packed tables [tLo, tHi) into
	// tbl and for packed columns [cLo, cHi) (pack-wide ordinals) into col:
	// estimate e of table t lands in tbl[(t−tLo)·pl.tblStride+pl.slot[e]],
	// and likewise for columns. The caller assembles JoinStats from the
	// rows, so there is one indirect call per range — none per candidate.
	// q must have been accepted; concurrent scans of disjoint or
	// overlapping ranges are safe (the pack is read-only).
	scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64)
}

// backends is the registry, indexed by Method. Each backend file populates
// its slot from init; Methods() and the numMethods sentinel stay the
// single source of truth for how many slots exist.
var backends [numMethods]backend

// register installs a backend; each backend file calls it exactly once per
// Method it owns.
func register(m Method, be backend) {
	if m < 0 || m >= numMethods {
		panic(fmt.Sprintf("ipsketch: registering backend for out-of-range method %d", int(m)))
	}
	if backends[m] != nil {
		panic(fmt.Sprintf("ipsketch: duplicate backend for method %v", m))
	}
	backends[m] = be
}

// backendFor resolves a method to its registered backend.
func backendFor(m Method) (backend, error) {
	if m < 0 || m >= numMethods || backends[m] == nil {
		return nil, fmt.Errorf("ipsketch: unknown method %d", int(m))
	}
	return backends[m], nil
}

// pairBackend resolves the shared backend of two sketches, rejecting nil
// sketches and method mismatches — the common prologue of every pairwise
// estimator.
func pairBackend(a, b *Sketch) (backend, error) {
	if a == nil || b == nil {
		return nil, errNilSketch
	}
	if a.method != b.method {
		return nil, fmt.Errorf("ipsketch: method mismatch %v vs %v", a.method, b.method)
	}
	return backendFor(a.method)
}

// payloadAs asserts a payload to a backend's concrete sketch type. The
// dispatch layer guarantees the method matches, so a failure here means a
// corrupted Sketch, which is reported rather than allowed to panic.
func payloadAs[T payload](p payload) (T, error) {
	t, ok := p.(T)
	if !ok {
		return t, fmt.Errorf("ipsketch: payload type %T does not belong to this backend", p)
	}
	return t, nil
}

// payloadPair asserts both payloads of a pairwise estimator.
func payloadPair[T payload](a, b payload) (T, T, error) {
	ta, err := payloadAs[T](a)
	if err != nil {
		var zero T
		return ta, zero, err
	}
	tb, err := payloadAs[T](b)
	return ta, tb, err
}
