package wmh

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// buildSampleMajor is the pre-refactor construction: for each sample, walk
// every block and re-mix the full (seed, sample, block, tag) key. It is the
// reference the block-major loop must match bitwise.
func buildSampleMajor(v vector.Sparse, p Params, vr variant) *Sketch {
	l := p.effectiveL(v.Dim())
	s := &Sketch{params: p, dim: v.Dim(), l: l, norm: v.Norm(), variant: vr}
	if v.IsEmpty() {
		s.empty = true
		return s
	}
	idx, weights := Round(v, l)
	vals := make([]float64, len(idx))
	for k := range idx {
		sign := 1.0
		if v.At(idx[k]) < 0 {
			sign = -1.0
		}
		vals[k] = sign * math.Sqrt(float64(weights[k])/float64(l))
		if p.QuantizeValues {
			vals[k] = float64(float32(vals[k]))
		}
	}
	s.hashes = make([]float64, p.M)
	s.vals = make([]float64, p.M)
	for i := 0; i < p.M; i++ {
		minHash := math.Inf(1)
		minVal := 0.0
		for k := range idx {
			key := blockKey(p.Seed, i, idx[k], vr)
			var h float64
			switch vr {
			case variantFast:
				h = hashing.PrefixMin(key, weights[k])
			default:
				h = hashing.BlockMinNaive(key, weights[k])
			}
			if h < minHash {
				minHash = h
				minVal = vals[k]
			}
		}
		s.hashes[i] = minHash
		s.vals[i] = minVal
	}
	return s
}

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
		a.norm != b.norm || a.empty != b.empty || a.variant != b.variant {
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

// TestBlockMajorMatchesSampleMajor is the loop-inversion equivalence proof:
// block-major construction (New and Builder) must produce sketches bitwise
// identical to the sample-major reference for the same seeds, across
// variants, quantization, and vector shapes.
func TestBlockMajorMatchesSampleMajor(t *testing.T) {
	for _, v := range testVectors(t) {
		for _, quant := range []bool{false, true} {
			p := Params{M: 33, Seed: 0xfeed, L: 1 << 18, QuantizeValues: quant}
			want := buildSampleMajor(v, p, p.variant())
			got, err := New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			sketchesEqual(t, got, want, "New")

			b, err := NewBuilder(p)
			if err != nil {
				t.Fatal(err)
			}
			// Run the builder twice to exercise scratch reuse.
			if _, err := b.Sketch(v); err != nil {
				t.Fatal(err)
			}
			fromBuilder, err := b.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			sketchesEqual(t, fromBuilder, want, "Builder")
		}
	}
	// Naive variant too.
	for _, v := range testVectors(t) {
		p := Params{M: 9, Seed: 3, L: 1 << 10}
		want := buildSampleMajor(v, p, variantNaive)
		got, err := NewNaive(v, p)
		if err != nil {
			t.Fatal(err)
		}
		sketchesEqual(t, got, want, "NewNaive")
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
	var dst Sketch
	for round := 0; round < 3; round++ {
		for _, v := range vs {
			if err := b.SketchInto(&dst, v); err != nil {
				t.Fatal(err)
			}
			want, err := New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			sketchesEqual(t, &dst, want, "SketchInto")
		}
	}
}

// TestSketchIntoZeroAllocs: the warm Builder path must not allocate, for
// every construction variant (the dart variant's process tables and dart
// scratch are owned by the Builder and reused across calls).
func TestSketchIntoZeroAllocs(t *testing.T) {
	vs := testVectors(t)
	v := vs[len(vs)-1]
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"fast", Params{M: 64, Seed: 5, L: 1 << 20}},
		{"dart", Params{M: 64, Seed: 5, L: 1 << 20, Dart: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBuilder(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			var dst Sketch
			if err := b.SketchInto(&dst, v); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := b.SketchInto(&dst, v); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm SketchInto allocates %v times per run, want 0", allocs)
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
