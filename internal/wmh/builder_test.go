package wmh

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
	"repro/internal/vector"
)

func testVectors(t testing.TB) []vector.Sparse {
	t.Helper()
	rng := hashing.NewSplitMix64(2024)
	out := []vector.Sparse{
		vector.MustNew(100, nil, nil), // empty
		vector.MustNew(100, []uint64{7}, []float64{-3}),
	}
	const dim = 1 << 16
	for _, nnz := range []int{5, 60, 300} {
		idx := make([]uint64, 0, nnz)
		vals := make([]float64, 0, nnz)
		next := uint64(0)
		for len(idx) < nnz {
			next += 1 + rng.Uint64()%50
			v := rng.Norm()
			if rng.Intn(10) == 0 {
				v = 20 + 10*rng.Float64()
			}
			if v == 0 {
				v = 1
			}
			idx = append(idx, next)
			vals = append(vals, v)
		}
		out = append(out, vector.MustNew(dim, idx, vals))
	}
	return out
}

func sketchesEqual(t *testing.T, a, b *Sketch, what string) {
	t.Helper()
	if a.params != b.params || a.dim != b.dim || a.l != b.l ||
		a.norm != b.norm || a.empty != b.empty {
		t.Fatalf("%s: header mismatch: %+v vs %+v", what, a, b)
	}
	if len(a.hashes) != len(b.hashes) || len(a.vals) != len(b.vals) {
		t.Fatalf("%s: length mismatch", what)
	}
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] || a.vals[i] != b.vals[i] {
			t.Fatalf("%s: sample %d differs: (%x,%x) vs (%x,%x)",
				what, i, a.hashes[i], a.vals[i], b.hashes[i], b.vals[i])
		}
	}
}

// TestBlockMajorMatchesSampleMajor is the record oracle's loop-inversion
// equivalence proof: its block-major construction (newRecord, split across
// workers) must produce sketches bitwise identical to the sample-major
// reference for the same seeds, across quantization and vector shapes.
func TestBlockMajorMatchesSampleMajor(t *testing.T) {
	for _, v := range testVectors(t) {
		for _, quant := range []bool{false, true} {
			p := Params{M: 33, Seed: 0xfeed, L: 1 << 18, QuantizeValues: quant}
			sketchesEqual(t, newRecord(v, p), buildSampleMajor(v, p, variantFast), "newRecord")
		}
	}
}

// TestBuilderScratchReuseAcrossVectors: interleaving vectors of different
// sizes through one Builder must give the same sketches as fresh New calls.
func TestBuilderScratchReuseAcrossVectors(t *testing.T) {
	p := Params{M: 17, Seed: 11, L: 1 << 16}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	vs := testVectors(t)
	for round := 0; round < 3; round++ {
		for _, v := range vs {
			got, err := b.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			sketchesEqual(t, got, want, "Builder.Sketch")
		}
	}
}

// TestBuilderSketchAllocs: a warm Builder allocates only the sketch and
// its two sample arrays (the dart process tables and dart scratch are
// owned by the Builder and reused across calls).
func TestBuilderSketchAllocs(t *testing.T) {
	vs := testVectors(t)
	v := vs[len(vs)-1]
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"dart", Params{M: 64, Seed: 5, L: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBuilder(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Sketch(v); err != nil { // warm-up
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
		})
	}
}

// TestEstimateZeroAllocs: the comparison hot path must not allocate.
func TestEstimateZeroAllocs(t *testing.T) {
	vs := testVectors(t)
	p := Params{M: 128, Seed: 5, L: 1 << 20}
	sa, err := New(vs[2], p)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(vs[3], p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Estimate(sa, sb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Estimate allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkAblation_FastVsNaive (DESIGN.md A3): the test-only active-index
// record process against naive O(L) slot hashing. A low-nnz vector makes
// per-block weights large (w ≈ L/nnz), which is where naive slot hashing
// pays O(w) and the record process pays O(log w).
func BenchmarkAblation_FastVsNaive(b *testing.B) {
	pp := datagen.PaperPairParams(0.1, 1)
	pp.NNZ = 50
	av, _, err := datagen.SyntheticPair(pp)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{M: 64, Seed: 1, L: 1 << 16} // small L so naive is feasible
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newRecord(av, p)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildSampleMajor(av, p, variantNaive)
		}
	})
}
