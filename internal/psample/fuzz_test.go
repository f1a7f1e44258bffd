package psample

import "testing"

// FuzzUnmarshalSketch hammers the payload decoder with arbitrary bytes:
// rejection is fine, panics are not, and anything accepted must re-encode
// and self-estimate without blowing up.
func FuzzUnmarshalSketch(f *testing.F) {
	for _, mode := range modes() {
		for _, nnz := range []int{0, 10, 200} {
			v := randomSparse(f, uint64(nnz+1), nnz)
			s, err := New(v, Params{K: 16, Seed: 7, Mode: mode})
			if err != nil {
				f.Fatal(err)
			}
			data, err := s.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// Payloads storing a value above the stored norm: they must reject.
	for _, data := range valueAboveNormBlobs(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("decoded sketch failed to re-encode: %v", err)
		}
		if _, err := Estimate(&s, &s); err != nil {
			t.Fatalf("decoded sketch failed self-estimate: %v", err)
		}
	})
}
