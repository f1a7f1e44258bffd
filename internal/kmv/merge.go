package kmv

import "repro/internal/sample"

// Merge computes the bottom-k sketch of the support union from two
// sketches built with the same parameters: the union of the retained
// (hash, value) pairs, deduplicated, truncated to the k smallest. For
// disjoint supports this equals the sketch of a + b exactly.
//
// The merged sketch's recorded support size is the sum of the inputs'
// support sizes minus the observed shared entries, capped at the
// dimension. Truncated sketches can only observe sharing among retained
// entries, so this is an UPPER bound on the true union size — exact when
// both inputs retained their full supports. The bound errs on the safe
// side: it can only under-claim exactness (SawAll), never falsely
// promise it.
func Merge(a, b *Sketch) (*Sketch, error) {
	if err := Compatible(a, b); err != nil {
		return nil, err
	}
	out := &Sketch{params: a.params, dim: a.dim}
	retain := len(a.hashes) + len(b.hashes)
	if retain > a.params.K {
		retain = a.params.K
	}
	out.hashes = make([]uint64, 0, retain)
	out.vals = make([]float64, 0, retain)

	// Merge the two ascending lists, deduplicating shared hashes.
	shared := 0
	i, j := 0, 0
	for i < len(a.hashes) || j < len(b.hashes) {
		if len(out.hashes) == a.params.K {
			break
		}
		switch {
		case j >= len(b.hashes) || (i < len(a.hashes) && a.hashes[i] < b.hashes[j]):
			out.hashes = append(out.hashes, a.hashes[i])
			out.vals = append(out.vals, a.vals[i])
			i++
		case i >= len(a.hashes) || b.hashes[j] < a.hashes[i]:
			out.hashes = append(out.hashes, b.hashes[j])
			out.vals = append(out.vals, b.vals[j])
			j++
		default: // equal hash: same index in both inputs
			out.hashes = append(out.hashes, a.hashes[i])
			out.vals = append(out.vals, a.vals[i])
			shared++
			i++
			j++
		}
	}
	// Count any remaining shared hashes beyond the truncation point so
	// the support-size bookkeeping stays consistent.
	for i < len(a.hashes) && j < len(b.hashes) {
		switch {
		case a.hashes[i] < b.hashes[j]:
			i++
		case a.hashes[i] > b.hashes[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	out.nnz = sample.UnionSupport(a.nnz, b.nnz, shared, a.dim)
	return out, nil
}
