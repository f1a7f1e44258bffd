package minhash

import (
	"testing"

	"repro/internal/vector"
)

func disjointVectors(t *testing.T) (vector.Sparse, vector.Sparse, vector.Sparse) {
	t.Helper()
	am := map[uint64]float64{}
	bm := map[uint64]float64{}
	um := map[uint64]float64{}
	for i := uint64(0); i < 100; i++ {
		am[i] = float64(i + 1)
		um[i] = float64(i + 1)
	}
	for i := uint64(500); i < 620; i++ {
		bm[i] = -float64(i)
		um[i] = -float64(i)
	}
	a, _ := vector.FromMap(10000, am)
	b, _ := vector.FromMap(10000, bm)
	u, _ := vector.FromMap(10000, um)
	return a, b, u
}

// TestMergeDisjointEqualsUnionSketch: for disjoint supports the merged
// sketch must be bitwise identical to sketching the sum vector directly.
func TestMergeDisjointEqualsUnionSketch(t *testing.T) {
	a, b, u := disjointVectors(t)
	p := Params{M: 128, Seed: 7}
	sa, _ := New(a, p)
	sb, _ := New(b, p)
	su, _ := New(u, p)
	merged, err := Merge(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range su.hashes {
		if merged.hashes[i] != su.hashes[i] || merged.vals[i] != su.vals[i] {
			t.Fatalf("merged sketch differs from union sketch at sample %d", i)
		}
	}
}

// TestMergeSupportsDistinctCounting: the merged sketch's distinct estimate
// approximates the union support size.
func TestMergeSupportsDistinctCounting(t *testing.T) {
	a, b, u := disjointVectors(t)
	p := Params{M: 2048, Seed: 9}
	sa, _ := New(a, p)
	sb, _ := New(b, p)
	merged, err := Merge(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	got := distinctEstimate(merged)
	want := float64(u.NNZ())
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("merged distinct estimate %v, want ~%v", got, want)
	}
}

func TestMergeCommutative(t *testing.T) {
	a, b, _ := disjointVectors(t)
	p := Params{M: 64, Seed: 11}
	sa, _ := New(a, p)
	sb, _ := New(b, p)
	ab, _ := Merge(sa, sb)
	ba, _ := Merge(sb, sa)
	for i := range ab.hashes {
		if ab.hashes[i] != ba.hashes[i] || ab.vals[i] != ba.vals[i] {
			t.Fatalf("merge not commutative at sample %d", i)
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	a, _, _ := disjointVectors(t)
	p := Params{M: 64, Seed: 13}
	sa, _ := New(a, p)
	m, err := Merge(sa, sa)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa.hashes {
		if m.hashes[i] != sa.hashes[i] || m.vals[i] != sa.vals[i] {
			t.Fatalf("self-merge changed sample %d", i)
		}
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a, _, _ := disjointVectors(t)
	empty := vector.MustNew(10000, nil, nil)
	p := Params{M: 64, Seed: 15}
	sa, _ := New(a, p)
	se, _ := New(empty, p)
	m, err := Merge(sa, se)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa.hashes {
		if m.hashes[i] != sa.hashes[i] {
			t.Fatal("merge with empty changed the sketch")
		}
	}
	m2, _ := Merge(se, sa)
	for i := range sa.hashes {
		if m2.hashes[i] != sa.hashes[i] {
			t.Fatal("merge with empty (reversed) changed the sketch")
		}
	}
	both, err := Merge(se, se)
	if err != nil {
		t.Fatal(err)
	}
	if !both.IsEmpty() {
		t.Fatal("merge of empties should be empty")
	}
}

func TestMergeRejectsIncompatible(t *testing.T) {
	a, _, _ := disjointVectors(t)
	sa, _ := New(a, Params{M: 64, Seed: 1})
	sb, _ := New(a, Params{M: 64, Seed: 2})
	if _, err := Merge(sa, sb); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

// TestMergeShardedEstimation: shard a vector's support into pieces, sketch
// each shard independently, merge, and estimate against another vector —
// identical to sketching the whole vector when shards are disjoint.
func TestMergeShardedEstimation(t *testing.T) {
	full := map[uint64]float64{}
	shard1 := map[uint64]float64{}
	shard2 := map[uint64]float64{}
	other := map[uint64]float64{}
	for i := uint64(0); i < 300; i++ {
		v := float64(i%17) + 1
		full[i] = v
		if i < 150 {
			shard1[i] = v
		} else {
			shard2[i] = v
		}
		if i%2 == 0 {
			other[i] = 2
		}
	}
	vf, _ := vector.FromMap(10000, full)
	v1, _ := vector.FromMap(10000, shard1)
	v2, _ := vector.FromMap(10000, shard2)
	vo, _ := vector.FromMap(10000, other)

	p := Params{M: 512, Seed: 21}
	sf, _ := New(vf, p)
	s1, _ := New(v1, p)
	s2, _ := New(v2, p)
	so, _ := New(vo, p)
	merged, err := Merge(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	eFull, _ := Estimate(sf, so)
	eMerged, err := Estimate(merged, so)
	if err != nil {
		t.Fatal(err)
	}
	if eFull != eMerged {
		t.Fatalf("sharded estimate %v != direct estimate %v", eMerged, eFull)
	}
}
