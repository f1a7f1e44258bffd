package wmh

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

// sketchBytes encodes a sketch for bitwise comparison.
func sketchBytes(t *testing.T, s *Sketch) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeVsRebuildAllVariants: with and without quantization and for
// several shard counts, folding the Shards partials with Merge must be
// bitwise identical to building the sketch directly — the dart
// superposition composition law.
func TestMergeVsRebuildAllVariants(t *testing.T) {
	v, _, err := datagen.SyntheticPair(datagen.PaperPairParams(0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"dart", Params{M: 64, Seed: 3}},
		{"quantize", Params{M: 64, Seed: 3, QuantizeValues: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := New(v, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			want := sketchBytes(t, direct)
			// Shard counts below, at, and above the block count (the
			// rounded support has ~nnz blocks; 1000 forces empty shards).
			for _, n := range []int{1, 2, 3, 7, 1000} {
				shards, err := Shards(v, tc.p, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(shards) != n {
					t.Fatalf("n=%d: got %d shards", n, len(shards))
				}
				merged := shards[0]
				for _, sk := range shards[1:] {
					if merged, err = Merge(merged, sk); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(sketchBytes(t, merged), want) {
					t.Fatalf("n=%d: merged sketch differs from direct construction", n)
				}
			}
		})
	}
}

// TestMergeRejectsDifferentNorms: independently normalized sketches must
// not merge silently — that is the loud failure mode for partials built
// without a shared parent normalization.
func TestMergeRejectsDifferentNorms(t *testing.T) {
	a := vector.MustNew(100, []uint64{1, 5}, []float64{1, 2})
	b := vector.MustNew(100, []uint64{7, 9}, []float64{3, 4})
	p := Params{M: 16, Seed: 1}
	sa, err := New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(b, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(sa, sb); err == nil || !strings.Contains(err.Error(), "norm") {
		t.Fatalf("merge of differently normalized sketches: err = %v", err)
	}
}

// TestMergeEmptyIdentity: empty partials (empty vectors or block-less
// shards) are the merge identity, and merging two empties stays empty.
func TestMergeEmptyIdentity(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9}, []float64{1, -2, 3})
	p := Params{M: 16, Seed: 1}
	s, err := New(v, p)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := New(vector.MustNew(100, nil, nil), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Sketch{{empty, s}, {s, empty}} {
		m, err := Merge(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sketchBytes(t, m), sketchBytes(t, s)) {
			t.Fatal("empty merge is not the identity")
		}
	}
	ee, err := Merge(empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !ee.IsEmpty() {
		t.Fatal("merge of two empties is not empty")
	}
	// The merged clone must not alias the input's sample arrays.
	m, err := Merge(empty, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.hashes) > 0 && &m.hashes[0] == &s.hashes[0] {
		t.Fatal("merged sketch aliases its input")
	}
}

// TestMergeRejectsVariantAndParamMismatches mirrors the estimator
// compatibility contract.
func TestMergeRejectsVariantAndParamMismatches(t *testing.T) {
	v := vector.MustNew(100, []uint64{1, 5, 9}, []float64{1, -2, 3})
	base := mustSketch(t, v, Params{M: 16, Seed: 1})
	for name, other := range map[string]*Sketch{
		"seed":    mustSketch(t, v, Params{M: 16, Seed: 2}),
		"samples": mustSketch(t, v, Params{M: 8, Seed: 1}),
	} {
		if _, err := Merge(base, other); err == nil {
			t.Fatalf("%s mismatch merged silently", name)
		}
	}
}
