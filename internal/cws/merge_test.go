package cws

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
	"repro/internal/vector"
)

func sketchBytes(t *testing.T, s *Sketch) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeVsRebuild: folding Shards partials with Merge is bitwise
// identical to direct construction — the acceptance argmin over a support
// union is the min of the per-shard argmins, and the winning acceptances
// are exactly reconstructible from the stored (index, level) keys.
func TestMergeVsRebuild(t *testing.T) {
	v, _, err := datagen.SyntheticPair(datagen.PaperPairParams(0.3, 19))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{M: 48, Seed: 5}
	direct, err := New(v, p)
	if err != nil {
		t.Fatal(err)
	}
	want := sketchBytes(t, direct)
	// The vector crosses hashing.FanOutWork, so the fill splits its samples
	// across the workers the host has: the bytes must not depend on how
	// many that is.
	if v.NNZ()*p.M < hashing.FanOutWork {
		t.Fatal("test vector does not cross the fan-out threshold")
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		sk, err := New(v, p)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sketchBytes(t, sk), want) {
			t.Fatalf("GOMAXPROCS=%d: sketch differs", procs)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 5000} {
		shards, err := Shards(v, p, n)
		if err != nil {
			t.Fatal(err)
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
}

// TestMergeSelfIdempotent: merging a sketch with itself reconstructs the
// same acceptances on both sides and must return the identical sketch —
// the acceptance-reconstruction sanity check.
func TestMergeSelfIdempotent(t *testing.T) {
	v := vector.MustNew(1000, []uint64{3, 77, 500, 999}, []float64{1.5, -2, 0.25, 4})
	s, err := New(v, Params{M: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sketchBytes(t, m), sketchBytes(t, s)) {
		t.Fatal("self-merge changed the sketch")
	}
}

// TestMergeRejectsDifferentNorms mirrors the WMH contract: independently
// normalized partials fail loudly.
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

// TestMergeEmptyIdentity: empty partials merge as the identity.
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
}
