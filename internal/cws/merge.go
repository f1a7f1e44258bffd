package cws

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// This file makes ICWS sketches mergeable. A sketch stores, per sample,
// the argmin of Ioffe's acceptance variable a = c·e^{−r(t−β+1)} over the
// support — and (r, c, β) come from the (seed, index, sample) key chain
// while t is the stored level, so the winning acceptance is exactly
// reconstructible from the sketch alone. Merging two sketches is then a
// per-sample comparison of the reconstructed acceptances: the overall
// argmin over a union of supports is the smaller of the per-subset
// argmins.
//
// Like WMH, the weights w_j = a[j]²/‖a‖² are normalized, so partials of
// one vector must be built against the parent's norm (Shards); Merge
// rejects unequal stored norms.

// Merge computes the union-min merge of two sketches built with identical
// parameters against the same normalization (equal stored norms): per
// sample, the entry with the smaller reconstructed acceptance wins. For
// shards of one vector (see Shards) the result is bitwise identical to
// sketching the vector directly. An empty input merges as the identity.
func Merge(a, b *Sketch) (*Sketch, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	if a.empty {
		return cloneSketch(b), nil
	}
	if b.empty {
		return cloneSketch(a), nil
	}
	if a.norm != b.norm {
		return nil, fmt.Errorf("cws: cannot merge sketches with stored norms %v vs %v: ICWS shards must share the parent vector's normalization (see Shards)", a.norm, b.norm)
	}
	m := a.params.M
	if len(a.idx) != m || len(b.idx) != m || len(a.level) != m || len(b.level) != m || len(a.vals) != m || len(b.vals) != m {
		return nil, fmt.Errorf("cws: cannot merge sketches with %d/%d samples, want %d", len(a.idx), len(b.idx), m)
	}
	out := &Sketch{params: a.params, dim: a.dim, norm: a.norm}
	out.idx = make([]uint64, m)
	out.level = make([]int64, m)
	out.vals = make([]float64, m)
	prefix := hashing.Mix(a.params.Seed)
	for i := 0; i < m; i++ {
		// Ties keep a's sample, matching the strict-inequality running
		// minimum of construction when shards are merged in support order.
		if acceptance(prefix, i, a.idx[i], a.level[i], a.vals[i]) <= acceptance(prefix, i, b.idx[i], b.level[i], b.vals[i]) {
			out.idx[i], out.level[i], out.vals[i] = a.idx[i], a.level[i], a.vals[i]
		} else {
			out.idx[i], out.level[i], out.vals[i] = b.idx[i], b.level[i], b.vals[i]
		}
	}
	return out, nil
}

// acceptance reconstructs the acceptance variable of the stored sample:
// (r, c, β) are redrawn from the construction's key chain and the stored
// level stands in for t, so the value is bit-identical to the one the
// construction compared. A zero stored value marks a sample no entry of
// the shard competed for (every real winner has val = ±√w ≠ 0) and
// reconstructs as +Inf, the running-minimum identity.
func acceptance(prefix uint64, sample int, j uint64, level int64, val float64) float64 {
	if val == 0 {
		return math.Inf(1)
	}
	jkey := hashing.Extend(hashing.Extend(prefix, j), cwsTag)
	rng := hashing.NewSplitMix64(hashing.Extend(jkey, uint64(sample)))
	r := gamma21(rng)
	c := gamma21(rng)
	beta := rng.Float64()
	return c * math.Exp(-r*(float64(level)-beta+1))
}

func cloneSketch(s *Sketch) *Sketch {
	out := *s
	out.idx = append([]uint64(nil), s.idx...)
	out.level = append([]int64(nil), s.level...)
	out.vals = append([]float64(nil), s.vals...)
	return &out
}

// Shards sketches v as n mergeable partial sketches: the support is split
// into n contiguous entry ranges, each filled by the same Builder under
// v's own norm (so every shard competes with exactly the weights the full
// construction uses). Folding the partials with Merge in order reproduces
// New(v, p) bitwise. Shards beyond the support size come back empty.
func Shards(v vector.Sparse, p Params, n int) ([]*Sketch, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("cws: shard count must be positive")
	}
	hdr, normSq := b.header(v), v.SquaredNorm()
	nnz := v.NNZ()
	chunk := (nnz + n - 1) / n
	out := make([]*Sketch, n)
	for w := range out {
		s := hdr
		lo := min(w*chunk, nnz)
		b.fill(&s, v, normSq, lo, min(lo+chunk, nnz))
		out[w] = &s
	}
	return out, nil
}
