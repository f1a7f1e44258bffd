package lsh

import "testing"

// FuzzInsertCandidates drives Insert and Candidates with arbitrary
// signatures and checks the structural invariants: wrong-length
// signatures are rejected, duplicate ids are rejected, every inserted
// item is its own candidate, candidate lists are duplicate-free and
// contain only inserted ids, and a reused Querier agrees with a fresh
// one.
func FuzzInsertCandidates(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(1), []byte{0xff})
	f.Add(uint8(3), uint8(3), make([]byte, 9*3))
	f.Fuzz(func(t *testing.T, bands, rows uint8, data []byte) {
		p := Params{Bands: 1 + int(bands%8), Rows: 1 + int(rows%8)}
		ix, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		sigLen := p.SignatureLen()
		// Decode data into fixed-length signatures, one byte per entry so
		// collisions between items are common.
		var sigs [][]uint64
		for len(data) >= sigLen && len(sigs) < 64 {
			sig := make([]uint64, sigLen)
			for i := 0; i < sigLen; i++ {
				sig[i] = uint64(data[i])
			}
			sigs = append(sigs, sig)
			data = data[sigLen:]
		}
		for id, sig := range sigs {
			if err := ix.Insert(id, sig); err != nil {
				t.Fatalf("insert id %d: %v", id, err)
			}
			if err := ix.Insert(id, sig); err == nil {
				t.Fatalf("duplicate id %d accepted", id)
			}
			if err := ix.Insert(len(sigs)+id, sig[:sigLen-1]); err == nil {
				t.Fatal("short signature accepted")
			}
		}
		if ix.Len() != len(sigs) {
			t.Fatalf("Len = %d, want %d", ix.Len(), len(sigs))
		}
		q := ix.NewQuerier()
		for id, sig := range sigs {
			cands, err := ix.NewQuerier().Candidates(sig, 0)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]bool, len(cands))
			self := false
			for _, c := range cands {
				if seen[c] {
					t.Fatalf("duplicate candidate %d", c)
				}
				seen[c] = true
				if c < 0 || c >= len(sigs) {
					t.Fatalf("candidate %d was never inserted", c)
				}
				if c == id {
					self = true
				}
			}
			if !self {
				t.Fatalf("item %d is not a candidate for its own signature", id)
			}
			// The reused, zero-alloc Querier must return the same set.
			qc, err := q.Candidates(sig, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(qc) != len(cands) {
				t.Fatalf("reused Querier returned %d candidates, a fresh one %d", len(qc), len(cands))
			}
			for _, c := range qc {
				if !seen[c] {
					t.Fatalf("reused Querier candidate %d missing from a fresh one's", c)
				}
			}
			// A reduced probe budget returns a subset.
			half, err := q.Candidates(sig, (p.Bands+1)/2)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range half {
				if !seen[c] {
					t.Fatalf("multi-probe candidate %d not in full set", c)
				}
			}
		}
		// Wrong-length queries error on both paths.
		bad := make([]uint64, sigLen+1)
		if _, err := ix.NewQuerier().Candidates(bad, 0); err == nil {
			t.Fatal("long query signature accepted")
		}
		if _, err := q.Candidates(bad, 0); err == nil {
			t.Fatal("long query signature accepted by Querier")
		}
	})
}
