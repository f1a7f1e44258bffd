package minhash

import "repro/internal/sample"

// Merge computes the sketch of the support union from two sketches built
// with the same parameters: per sample, the smaller hash (and its value)
// wins. For vectors with disjoint supports this equals the sketch of
// a + b exactly; for overlapping supports it equals the sketch of the
// vector that takes, at every shared index, the value of whichever input
// wins the hash race there — which is a (or b) itself whenever the two
// agree on shared entries.
//
// Mergeability is what lets sketches of shards be combined without
// touching the data again (e.g. per-partition sketches of a distributed
// table rolled up into one table-level sketch).
func Merge(a, b *Sketch) (*Sketch, error) {
	if err := Compatible(a, b); err != nil {
		return nil, err
	}
	if a.empty {
		return cloneSketch(b), nil
	}
	if b.empty {
		return cloneSketch(a), nil
	}
	out := &Sketch{params: a.params, dim: a.dim}
	out.hashes, out.vals = sample.MinMerge(a.hashes, a.vals, b.hashes, b.vals)
	return out, nil
}

func cloneSketch(s *Sketch) *Sketch {
	out := *s
	out.hashes = append([]uint64(nil), s.hashes...)
	out.vals = append([]float64(nil), s.vals...)
	return &out
}
