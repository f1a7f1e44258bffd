package kmv

import (
	"testing"

	"repro/internal/vector"
)

func shardVectors(t *testing.T) (full, s1, s2 vector.Sparse) {
	t.Helper()
	fm := map[uint64]float64{}
	m1 := map[uint64]float64{}
	m2 := map[uint64]float64{}
	for i := uint64(0); i < 400; i++ {
		v := float64(i%13) + 0.5
		fm[i] = v
		if i%2 == 0 {
			m1[i] = v
		} else {
			m2[i] = v
		}
	}
	full, _ = vector.FromMap(100000, fm)
	s1, _ = vector.FromMap(100000, m1)
	s2, _ = vector.FromMap(100000, m2)
	return
}

// TestMergeDisjointEqualsDirect: merging sketches of disjoint shards is
// bitwise identical to sketching the full vector.
func TestMergeDisjointEqualsDirect(t *testing.T) {
	full, s1, s2 := shardVectors(t)
	p := Params{K: 64, Seed: 3}
	sf, _ := New(full, p)
	sk1, _ := New(s1, p)
	sk2, _ := New(s2, p)
	merged, err := Merge(sk1, sk2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.hashes) != len(sf.hashes) {
		t.Fatalf("merged has %d entries, direct has %d", len(merged.hashes), len(sf.hashes))
	}
	for i := range sf.hashes {
		if merged.hashes[i] != sf.hashes[i] || merged.vals[i] != sf.vals[i] {
			t.Fatalf("merged differs from direct at entry %d", i)
		}
	}
	if merged.nnz != full.NNZ() {
		t.Fatalf("merged nnz %d, want %d", merged.nnz, full.NNZ())
	}
}

func TestMergeOverlappingSupports(t *testing.T) {
	// Both shards contain the full vector: the merged retained entries
	// must be idempotent. The recorded support size is an upper bound
	// (sharing beyond the retained entries is unobservable), so it may
	// exceed the input's but must never fall below it.
	full, _, _ := shardVectors(t)
	p := Params{K: 64, Seed: 5}
	sf, _ := New(full, p)
	merged, err := Merge(sf, sf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sf.hashes {
		if merged.hashes[i] != sf.hashes[i] {
			t.Fatalf("self-merge changed entry %d", i)
		}
	}
	if merged.nnz < sf.nnz {
		t.Fatalf("self-merge nnz %d below input's %d (must stay an upper bound)", merged.nnz, sf.nnz)
	}
	if merged.SawAll() {
		t.Fatal("truncated self-merge must not claim exactness")
	}
}

func TestMergeDistinctEstimate(t *testing.T) {
	full, s1, s2 := shardVectors(t)
	p := Params{K: 128, Seed: 7}
	sk1, _ := New(s1, p)
	sk2, _ := New(s2, p)
	merged, err := Merge(sk1, sk2)
	if err != nil {
		t.Fatal(err)
	}
	got := distinctEstimate(merged)
	want := float64(full.NNZ())
	if got < 0.7*want || got > 1.3*want {
		t.Fatalf("merged distinct estimate %v, want ~%v", got, want)
	}
}

func TestMergeSmallSidesStayExact(t *testing.T) {
	// Two tiny shards both below K: the merge retains everything and the
	// support bookkeeping is exact, so downstream estimates remain exact.
	m1 := map[uint64]float64{1: 1, 2: 2}
	m2 := map[uint64]float64{2: 2, 3: 3}
	v1, _ := vector.FromMap(100, m1)
	v2, _ := vector.FromMap(100, m2)
	p := Params{K: 16, Seed: 9}
	sk1, _ := New(v1, p)
	sk2, _ := New(v2, p)
	merged, err := Merge(sk1, sk2)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.SawAll() {
		t.Fatal("merged small sketch should have full support")
	}
	if merged.nnz != 3 {
		t.Fatalf("merged nnz %d, want 3 (shared key counted once)", merged.nnz)
	}
	if distinctEstimate(merged) != 3 {
		t.Fatalf("distinct estimate %v, want exactly 3", distinctEstimate(merged))
	}
}

func TestMergeCommutative(t *testing.T) {
	_, s1, s2 := shardVectors(t)
	p := Params{K: 32, Seed: 11}
	sk1, _ := New(s1, p)
	sk2, _ := New(s2, p)
	ab, _ := Merge(sk1, sk2)
	ba, _ := Merge(sk2, sk1)
	if len(ab.hashes) != len(ba.hashes) || ab.nnz != ba.nnz {
		t.Fatal("merge not commutative in shape")
	}
	for i := range ab.hashes {
		if ab.hashes[i] != ba.hashes[i] || ab.vals[i] != ba.vals[i] {
			t.Fatalf("merge not commutative at entry %d", i)
		}
	}
}

func TestMergeRejectsIncompatible(t *testing.T) {
	_, s1, _ := shardVectors(t)
	a, _ := New(s1, Params{K: 32, Seed: 1})
	b, _ := New(s1, Params{K: 64, Seed: 1})
	if _, err := Merge(a, b); err == nil {
		t.Fatal("K mismatch accepted")
	}
}

func TestMergeWithEmpty(t *testing.T) {
	_, s1, _ := shardVectors(t)
	empty := vector.MustNew(100000, nil, nil)
	p := Params{K: 32, Seed: 13}
	sa, _ := New(s1, p)
	se, _ := New(empty, p)
	m, err := Merge(sa, se)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.hashes) != len(sa.hashes) || m.nnz != sa.nnz {
		t.Fatal("merge with empty changed the sketch")
	}
}

// TestMergedSupportRoundTrips: a truncated self-merge of a vector that
// fills its dimension over-counts the union, 2·20−4 = 36 entries of a
// 20-dimensional vector; the recorded size is capped at the dimension, so
// the merged sketch still decodes and still does not claim exactness.
func TestMergedSupportRoundTrips(t *testing.T) {
	m := map[uint64]float64{}
	for i := range uint64(20) {
		m[i] = float64(i + 1)
	}
	v, err := vector.FromMap(20, m)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(v, Params{K: 4, Seed: 5})
	merged, err := Merge(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if merged.nnz != 20 {
		t.Fatalf("merged nnz %d, want the dimension 20", merged.nnz)
	}
	b, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatalf("merged sketch does not decode: %v", err)
	}
	if back.SawAll() {
		t.Fatal("truncated merge claims exactness")
	}
}
