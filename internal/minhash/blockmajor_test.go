package minhash

import (
	"runtime"
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

// buildSampleMajor is the pre-refactor loop: per sample, hash every support
// index with the full Mix(sampleKey, idx) re-mix.
func buildSampleMajor(v vector.Sparse, p Params) *Sketch {
	s := &Sketch{params: p, dim: v.Dim()}
	if v.IsEmpty() {
		s.empty = true
		return s
	}
	s.hashes = make([]uint64, p.M)
	s.vals = make([]float64, p.M)
	for i := 0; i < p.M; i++ {
		key := sampleKey(p.Seed, i)
		minHash := uint64(1<<64 - 1)
		minVal := 0.0
		v.Range(func(idx uint64, val float64) bool {
			if hv := hashing.Mix(key, idx); hv < minHash {
				minHash = hv
				minVal = val
			}
			return true
		})
		s.hashes[i] = minHash
		s.vals[i] = minVal
	}
	return s
}

// TestBlockMajorMatchesSampleMajor: the entry-major loop must reproduce the
// sample-major loop bitwise for the same seeds — inline, and (the cases
// that cross hashing.FanOutWork) with its samples split across one worker
// or four.
func TestBlockMajorMatchesSampleMajor(t *testing.T) {
	for _, tc := range []struct{ nnz, procs int }{{1, 0}, {7, 0}, {120, 0}, {2400, 1}, {2400, 4}} {
		nnz := tc.nnz
		v := randomSparse(t, uint64(nnz), nnz)
		p := Params{M: 29, Seed: 0xabc}
		want := buildSampleMajor(v, p)
		if tc.procs > 0 {
			if nnz*p.M < hashing.FanOutWork {
				t.Fatalf("nnz=%d does not cross the fan-out threshold", nnz)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
		}
		got, err := New(v, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		fromBuilder, err := b.Sketch(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Sketch{got, fromBuilder} {
			if s.params != want.params || s.dim != want.dim || s.empty != want.empty {
				t.Fatalf("nnz=%d: header mismatch", nnz)
			}
			for i := range want.hashes {
				if s.hashes[i] != want.hashes[i] || s.vals[i] != want.vals[i] {
					t.Fatalf("nnz=%d procs=%d sample %d: (%x,%v) vs (%x,%v)",
						nnz, tc.procs, i, s.hashes[i], s.vals[i], want.hashes[i], want.vals[i])
				}
			}
		}
	}
}

// TestBuilderSketchAllocs: a warm Builder allocates only the sketch and
// its two sample arrays.
func TestBuilderSketchAllocs(t *testing.T) {
	v := randomSparse(t, 5, 200)
	b, err := NewBuilder(Params{M: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
