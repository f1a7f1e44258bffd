package ipsketch

import (
	"errors"
	"fmt"

	"repro/internal/psample"
)

// errNilSketch rejects nil sketches at every estimator entry point.
var errNilSketch = errors.New("ipsketch: nil sketch")

// This file is the method-dispatch substrate of the package: one backend
// descriptor per method, held in a single table indexed by Method. A
// descriptor is a struct of function fields — the operations every method
// has, plus one optional field per capability that is nil when the method
// lacks it — built by lifting the family package's typed API through the
// generic adapters below. Every public entry point (construction,
// estimation, batching, serialization, LSH signatures) resolves the
// descriptor and calls a field or tests one for nil, so adding a sketching
// method is one internal package plus one descriptor, and no switch
// statement in the public API grows a case.

// payload is the method-specific content of a Sketch. Concrete types live
// in the internal sketch packages; the public Sketch wraps exactly one.
type payload interface {
	// StorageWords is the sketch size in 64-bit words under the paper's
	// accounting.
	StorageWords() float64
	// MarshalBinary encodes the method payload (without the envelope).
	MarshalBinary() ([]byte, error)
}

// builder constructs sketches with reusable scratch. A builder is
// single-goroutine; every construction entry point draws one from the
// sketcher's pool, and batch APIs run one per worker.
type builder interface {
	sketch(v Vector) (payload, error)
	// sketchBundle sketches the vectors of one table bundle (one key set
	// under 1+2·|cols| weightings) in one call; out[i] is identical to
	// sketch(vs[i]).
	sketchBundle(vs []Vector) ([]payload, error)
}

// builderOf adapts a family's typed construction functions to builder. one
// is a reusable internal Builder's Sketch method, or a closure over a
// one-shot constructor for the scratch-free linear families. all, when
// non-nil, sketches a bundle in one call that shares work across its
// vectors (WMH's dart walk); without it a bundle is sketched vector by
// vector.
type builderOf[T payload] struct {
	one func(Vector) (T, error)
	all func([]Vector) ([]T, error)
}

func (b builderOf[T]) sketch(v Vector) (payload, error) {
	sk, err := b.one(v)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

func (b builderOf[T]) sketchBundle(vs []Vector) ([]payload, error) {
	if b.all != nil {
		return payloads(b.all(vs))
	}
	out := make([]payload, len(vs))
	for i, v := range vs {
		var err error
		if out[i], err = b.sketch(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// backend describes one method. The first six fields are required (the
// registry test checks them); every other field is an optional capability,
// nil or false when the method lacks it, and the dispatch site that serves
// it tests the field instead of asserting an interface.
type backend struct {
	// name is the method's display name (as in the paper's plots).
	name string
	// size derives the method-specific size parameter (samples, rows,
	// buckets, bits) from the configured storage budget.
	size func(cfg Config) (int, error)
	// newBuilder returns a fresh builder for the configuration — the one
	// way to construct a sketch. Builders own all construction scratch, so
	// the steady state allocates only the returned sketches, and decide by
	// themselves when one vector is worth fanning out across cores.
	newBuilder func(cfg Config, size int) (builder, error)
	// compatible reports why two payloads of this method cannot be
	// compared (construction parameter, seed, or variant mismatch), or nil.
	compatible func(a, b payload) error
	// estimate returns the inner-product estimate. It must reject an
	// incompatible pair with compatible's error before any estimator math
	// — every family estimator checks first — so Estimate, the per-pair
	// hot path of a decoded scan, dispatches without a second check.
	estimate func(a, b payload) (float64, error)
	// unmarshal decodes a payload from its serialized form. The wire
	// format of a registered method is frozen (see testdata/golden).
	unmarshal func(data []byte) (payload, error)

	// merge combines two payloads into the sketch of the union
	// (min-based families) or sum (linear families) of the sketched
	// vectors. Dispatch runs compatible before merge.
	merge func(a, b payload) (payload, error)
	// shards builds n mergeable partials of one vector for methods whose
	// construction normalizes by the vector's own statistics (WMH's
	// rounded blocks): the partials must share the parent's
	// normalization, which only the family package can arrange.
	// Other mergeable methods are sharded by slicing the support.
	shards func(cfg Config, size int, v Vector, n int) ([]payload, error)
	// joinSize is a dedicated |A∩B| estimator that beats the generic
	// inner-product reduction (KMV's threshold estimator). It checks
	// compatibility itself, as estimate does.
	joinSize func(a, b payload) (float64, error)
	// signature returns the samples as an LSH signature: entries of two
	// signatures built under the same Config collide with probability
	// equal to the (weighted) Jaccard similarity of the sketched vectors,
	// making them bandable by internal/lsh. An empty sketch yields a nil
	// signature — empty columns are unbandable, not wildcard matches.
	signature func(p payload) ([]uint64, error)
	// withBound returns the estimate together with its own data-driven
	// error scale, for sketches that carry enough information for one.
	withBound func(a, b payload) (estimate, errScale float64, err error)
	// packs is the columnar scan family (columnar.go) of methods the
	// search kernel packs; methods without one scan decoded.
	packs columnarScorer
	// quantize reports whether Config.Quantize is honored; Config.Validate
	// rejects the flag everywhere else instead of silently ignoring it.
	quantize bool
}

// columnarScorer is the type of a backend's packs field: a family that
// can pack many sketches into contiguous structure-of-arrays storage and
// score them against a query bundle with a flat-array kernel — the
// search-side hot path. Families without one transparently fall back to
// the decoded per-candidate scorer, bit-identically. The one
// implementation is *packFamily (columnar.go).
type columnarScorer interface {
	// pack packs one index snapshot: keys holds each table's key-sketch
	// payload, vals and sqs every table's value and squared-value
	// payloads in table order and, within a table, sorted column order.
	// Every payload is of this family and of one configuration (the
	// index pins it).
	pack(keys, vals, sqs []payload) columnarPack
	// prepareQuery gathers one query bundle (key, value, squared-value
	// payloads of the query column) once per search, independent of any
	// pack, so a search over many index snapshots prepares its query once.
	// The payloads are of this family (the search checked the query
	// against each index's configuration).
	prepareQuery(qKey, qVal, qSq payload) columnarQuery
}

// columnarQuery is a family's query bundle; only the packs of the family
// that prepared it look inside.
type columnarQuery any

// columnarPack is one index snapshot's bundles of one family packed into
// flat arrays at index build time; it is read-only once built.
type columnarPack interface {
	// scan fills the estimates pl names for packed tables [tLo, tHi) into
	// tbl and for packed columns [cLo, cHi) (pack-wide ordinals) into col:
	// estimate e of table t lands in tbl[(t−tLo)·pl.tblStride+pl.slot[e]],
	// and likewise for columns. The caller assembles JoinStats from the
	// rows, so there is one indirect call per range — none per candidate.
	// Concurrent scans of disjoint or overlapping ranges are safe (the
	// pack is read-only).
	scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64)
}

// backends is the registry, indexed by Method: one descriptor per method,
// declared in the backend_*.go file of its family. Methods() and the
// numMethods sentinel stay the single source of truth for how many slots
// exist; the retired slot methodICWSRemoved has no descriptor.
var backends = [numMethods]*backend{
	MethodWMH:         wmhBackend,
	MethodMH:          mhBackend,
	MethodKMV:         kmvBackend,
	MethodJL:          jlBackend,
	MethodCountSketch: csBackend,
	MethodSimHash:     simHashBackend,
	MethodPS:          psampleBackend(psample.Priority, "PS"),
	MethodTS:          psampleBackend(psample.Threshold, "TS"),
}

// errICWSRemoved is what every entry point reports for the retired ICWS
// slot, so an old sketch or snapshot says why it no longer decodes.
var errICWSRemoved = errors.New("ipsketch: method 5: ICWS was removed; re-sketch the source data with another method")

// backendFor resolves a method to its descriptor.
func backendFor(m Method) (*backend, error) {
	if m == methodICWSRemoved {
		return nil, errICWSRemoved
	}
	if m < 0 || m >= numMethods || backends[m] == nil {
		return nil, fmt.Errorf("ipsketch: unknown method %d", int(m))
	}
	return backends[m], nil
}

// pairBackend resolves the shared descriptor of two sketches, rejecting
// nil sketches and method mismatches — the common prologue of every
// pairwise estimator.
func pairBackend(a, b *Sketch) (*backend, error) {
	if a == nil || b == nil {
		return nil, errNilSketch
	}
	if a.method != b.method {
		return nil, fmt.Errorf("ipsketch: method mismatch %v vs %v", a.method, b.method)
	}
	return backendFor(a.method)
}

// payloadAs asserts a payload to a family's concrete sketch type. The
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

// The lifts below adapt a family package's typed API to a descriptor's
// payload-typed fields, so a descriptor entry names the family function
// (estimate: pair(wmh.Estimate)) instead of wrapping it by hand.

// pair lifts a typed pairwise function: compatibility checks, estimators.
func pair[T payload, R any](f func(a, b T) (R, error)) func(a, b payload) (R, error) {
	return func(a, b payload) (R, error) {
		pa, pb, err := payloadPair[T](a, b)
		if err != nil {
			var zero R
			return zero, err
		}
		return f(pa, pb)
	}
}

// check lifts a typed compatibility check.
func check[T payload](f func(a, b T) error) func(a, b payload) error {
	return func(a, b payload) error {
		pa, pb, err := payloadPair[T](a, b)
		if err != nil {
			return err
		}
		return f(pa, pb)
	}
}

// unary lifts an infallible typed accessor (signatures).
func unary[T payload, R any](f func(T) R) func(payload) (R, error) {
	return func(p payload) (R, error) {
		t, err := payloadAs[T](p)
		if err != nil {
			var zero R
			return zero, err
		}
		return f(t), nil
	}
}

// merged lifts a typed merge. A failed merge returns a nil payload, never
// a typed nil pointer inside one.
func merged[T payload](f func(a, b T) (T, error)) func(a, b payload) (payload, error) {
	return func(a, b payload) (payload, error) {
		pa, pb, err := payloadPair[T](a, b)
		if err != nil {
			return nil, err
		}
		s, err := f(pa, pb)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// decode is the unmarshal field of a family whose sketch type T decodes
// itself through *T's UnmarshalBinary.
func decode[T any, P interface {
	*T
	payload
	UnmarshalBinary(data []byte) error
}](data []byte) (payload, error) {
	s := P(new(T))
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// payloads widens a family's typed shard slice.
func payloads[T payload](sks []T, err error) ([]payload, error) {
	if err != nil {
		return nil, err
	}
	out := make([]payload, len(sks))
	for i, sk := range sks {
		out[i] = sk
	}
	return out, nil
}

// builds adapts a family's reusable internal Builder to builder.
func builds[T payload, B interface{ Sketch(Vector) (T, error) }](b B, err error) (builder, error) {
	if err != nil {
		return nil, err
	}
	return builderOf[T]{one: b.Sketch}, nil
}

// oneShot adapts a scratch-free constructor (the linear families build
// S(a) = Πa directly) to builder; batch fan-out still parallelizes it
// across vectors.
func oneShot[T payload, P any](f func(Vector, P) (T, error), p P) (builder, error) {
	return builderOf[T]{one: func(v Vector) (T, error) { return f(v, p) }}, nil
}
