package kmv

import (
	"sort"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

func randomSparse(t testing.TB, seed uint64, nnz int) vector.Sparse {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	idx := make([]uint64, 0, nnz)
	vals := make([]float64, 0, nnz)
	next := uint64(0)
	for len(idx) < nnz {
		next += 1 + rng.Uint64()%40
		v := rng.Norm()
		if v == 0 {
			v = 1
		}
		idx = append(idx, next)
		vals = append(vals, v)
	}
	return vector.MustNew(1<<16, idx, vals)
}

// buildSortAll is the pre-refactor construction: hash the whole support,
// sort it, truncate to K.
func buildSortAll(v vector.Sparse, p Params) *Sketch {
	key := hashing.Mix(p.Seed, 0x6b6d76)
	type hv struct {
		h uint64
		v float64
	}
	all := make([]hv, 0, v.NNZ())
	v.Range(func(idx uint64, val float64) bool {
		all = append(all, hv{h: hashing.Mix(key, idx), v: val})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].h < all[j].h })
	if len(all) > p.K {
		all = all[:p.K]
	}
	s := &Sketch{params: p, dim: v.Dim(), nnz: v.NNZ()}
	s.hashes = make([]uint64, len(all))
	s.vals = make([]float64, len(all))
	for i, e := range all {
		s.hashes[i] = e.h
		s.vals[i] = e.v
	}
	return s
}

// TestHeapSelectionMatchesSortAll: the bounded-heap construction must
// reproduce the sort-everything construction exactly (same retained pairs
// in the same ascending order) for supports below, at, and above K.
func TestHeapSelectionMatchesSortAll(t *testing.T) {
	for _, nnz := range []int{1, 10, 64, 65, 500} {
		v := randomSparse(t, uint64(nnz), nnz)
		p := Params{K: 64, Seed: 0x5eed}
		want := buildSortAll(v, p)
		got, err := New(v, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.nnz != want.nnz || got.dim != want.dim || len(got.hashes) != len(want.hashes) {
			t.Fatalf("nnz=%d: shape mismatch", nnz)
		}
		for i := range want.hashes {
			if got.hashes[i] != want.hashes[i] || got.vals[i] != want.vals[i] {
				t.Fatalf("nnz=%d retained %d: (%x,%v) vs (%x,%v)",
					nnz, i, got.hashes[i], got.vals[i], want.hashes[i], want.vals[i])
			}
		}
	}
}

// TestBuilderReuse: scratch reuse across vectors of different sizes
// must not leak state, and a warm Sketch allocates only the sketch and
// its two sample arrays.
func TestBuilderReuse(t *testing.T) {
	p := Params{K: 32, Seed: 9}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, nnz := range []int{80, 5, 200} {
			v := randomSparse(t, uint64(nnz), nnz)
			got, err := b.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			want := buildSortAll(v, p)
			if len(got.hashes) != len(want.hashes) {
				t.Fatalf("nnz=%d: kept %d, want %d", nnz, len(got.hashes), len(want.hashes))
			}
			for i := range want.hashes {
				if got.hashes[i] != want.hashes[i] || got.vals[i] != want.vals[i] {
					t.Fatalf("nnz=%d retained %d differs", nnz, i)
				}
			}
		}
	}
	v := randomSparse(t, 77, 300)
	if _, err := b.Sketch(v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Sketch(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("warm Sketch allocates %v times per run, want 3", allocs)
	}
}
