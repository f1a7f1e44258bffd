package kmv

import (
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	v := rangeVec(0, 200, ones)
	p := Params{K: 32, Seed: 7}
	s := mustSketch(t, v, p)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Params() != p || got.Dim() != s.Dim() || got.SawAll() != s.SawAll() {
		t.Fatal("metadata lost")
	}
	other := mustSketch(t, rangeVec(100, 300, ones), p)
	e1, err := Estimate(&got, other)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := Estimate(s, other)
	if e1 != e2 {
		t.Fatalf("decoded estimate %v != original %v", e1, e2)
	}
	if distinctEstimate(&got) != distinctEstimate(s) {
		t.Fatal("distinct estimate changed")
	}
}

func TestSerializeSmallSupportStaysExact(t *testing.T) {
	v := rangeVec(0, 5, ones)
	s := mustSketch(t, v, Params{K: 32, Seed: 1})
	data, _ := s.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.SawAll() || distinctEstimate(&got) != 5 {
		t.Fatal("exactness lost in round trip")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	v := rangeVec(0, 100, ones)
	s := mustSketch(t, v, Params{K: 16, Seed: 1})
	data, _ := s.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalBinary(data[:20]); err == nil {
		t.Fatal("truncated accepted")
	}
	// K = 0.
	bad := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		bad[i] = 0
	}
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Fatal("K=0 accepted")
	}
	// Break the ascending-hash invariant: swap first two retained hashes.
	bad2 := append([]byte(nil), data...)
	// Layout: K(8) Seed(8) dim(8) nnz(8) len(8) h0(8) h1(8)...
	for i := 0; i < 8; i++ {
		bad2[40+i], bad2[48+i] = bad2[48+i], bad2[40+i]
	}
	if err := got.UnmarshalBinary(bad2); err == nil {
		t.Fatal("unsorted hashes accepted")
	}
}

func TestUnmarshalRejectsCountMismatch(t *testing.T) {
	v := rangeVec(0, 100, ones)
	s := mustSketch(t, v, Params{K: 16, Seed: 1})
	data, _ := s.MarshalBinary()
	// Claim nnz = 3 (so want = 3 entries) while carrying 16.
	bad := append([]byte(nil), data...)
	for i := 24; i < 32; i++ {
		bad[i] = 0
	}
	bad[24] = 3
	var got Sketch
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Fatal("entry-count mismatch accepted")
	}
}
