package ipsketch

import (
	"errors"
	"fmt"

	"repro/internal/hashing"
)

// This file is the batch surface of the sketching engine: catalog-scale
// operations that fan work across a bounded worker pool (one contiguous
// chunk per GOMAXPROCS worker, see hashing.ParallelWorkers) and reuse
// per-worker builder scratch so the steady state allocates only the
// returned sketches. Results are deterministic and identical to the
// corresponding one-at-a-time calls: batching changes the schedule, never
// the output. Construction is the same pooled builder Sketch draws — each
// worker takes one and reuses it across its whole partition.

// SketchAll sketches every vector in vs and returns the sketches in order.
// It is the high-throughput path for sketching a catalog: vectors are
// partitioned across a bounded worker pool and each worker reuses one
// builder's scratch for its whole partition. The output of SketchAll(vs)[i]
// is identical to Sketch(vs[i]).
func (s *Sketcher) SketchAll(vs []Vector) ([]*Sketch, error) {
	out := make([]*Sketch, len(vs))
	errs := make([]error, len(vs))
	workers := hashing.WorkerCount(len(vs))
	setupErrs := make([]error, workers) // builder-construction (config) errors
	hashing.ParallelWorkers(len(vs), workers, func(w, lo, hi int) {
		setupErrs[w] = s.sketchRange(vs, out, errs, lo, hi)
	})
	for _, err := range setupErrs {
		if err != nil {
			// A builder failing to construct is a configuration problem,
			// not a property of any particular vector.
			return nil, fmt.Errorf("ipsketch: %v builder: %w", s.cfg.Method, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ipsketch: sketching vector %d: %w", i, err)
		}
	}
	return out, nil
}

// getBuilder draws a builder from the sketcher's pool, so construction
// scratch (rounding buffers, the warm dart process) survives across calls
// instead of being rebuilt per call. Builders are single-goroutine;
// callers return them with putBuilder when done.
func (s *Sketcher) getBuilder() (builder, error) {
	if b, ok := s.pool.Get().(builder); ok {
		return b, nil
	}
	return s.be.newBuilder(s.cfg, s.size)
}

func (s *Sketcher) putBuilder(b builder) { s.pool.Put(b) }

// build sketches v with b and tags the payload with the sketcher's method.
func (s *Sketcher) build(b builder, v Vector) (*Sketch, error) {
	p, err := b.sketch(v)
	if err != nil {
		return nil, err
	}
	return &Sketch{method: s.cfg.Method, payload: p}, nil
}

// sketchRange sketches vs[lo:hi] with one pooled builder's reused scratch.
// The returned error is a builder-construction failure; per-vector errors
// land in errs.
func (s *Sketcher) sketchRange(vs []Vector, out []*Sketch, errs []error, lo, hi int) error {
	b, err := s.getBuilder()
	if err != nil {
		return err
	}
	defer s.putBuilder(b)
	for i := lo; i < hi; i++ {
		out[i], errs[i] = s.build(b, vs[i])
	}
	return nil
}

// SketchShards sketches v as n mergeable partial sketches: the support is
// split into n contiguous coordinate shards, each summarized under the
// parent vector's global statistics, so MergeAll(shards) reproduces
// Sketch(v) — bitwise for the min-based families, and up to float
// summation order of the stored aggregate statistics for the norm-carrying
// samplers (PS/TS) and the linear sketches. Shards beyond the support size
// come back empty (the merge identity). The partials are what a
// distributed producer pushes to a sketchd /merge endpoint; sharding is
// for distributing one vector's ingest, not for speeding it up — a
// builder already spreads one large vector over the cores (DESIGN.md
// §10.2).
//
// A method whose construction normalizes per vector (WMH) shards inside
// the family package, which rounds the parent once and fills each partial
// from a range of it; everything else sketches the sub-vectors directly
// with pooled builders, concurrently across the worker pool. Methods
// without merge support (SimHash) fail with ErrNotMergeable.
func (s *Sketcher) SketchShards(v Vector, n int) ([]*Sketch, error) {
	if n <= 0 {
		return nil, errors.New("ipsketch: shard count must be positive")
	}
	if s.be.shards != nil {
		ps, err := s.be.shards(s.cfg, s.size, v, n)
		if err != nil {
			return nil, err
		}
		out := make([]*Sketch, len(ps))
		for i, p := range ps {
			out[i] = &Sketch{method: s.cfg.Method, payload: p}
		}
		return out, nil
	}
	if s.be.merge == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotMergeable, s.cfg.Method)
	}
	out := make([]*Sketch, n)
	errs := make([]error, n)
	nnz := v.NNZ()
	chunk := (nnz + n - 1) / n
	hashing.ParallelWorkers(n, hashing.Workers(n), func(_, wLo, wHi int) {
		b, err := s.getBuilder()
		if err != nil {
			for w := wLo; w < wHi; w++ {
				errs[w] = err
			}
			return
		}
		defer s.putBuilder(b)
		for w := wLo; w < wHi; w++ {
			lo := min(w*chunk, nnz)
			hi := min(lo+chunk, nnz)
			out[w], errs[w] = s.build(b, v.Shard(lo, hi))
		}
	})
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ipsketch: sketching shard %d: %w", w, err)
		}
	}
	return out, nil
}
