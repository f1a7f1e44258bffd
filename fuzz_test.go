package ipsketch

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the deserialization attack surface: arbitrary bytes
// must never panic, and anything that decodes successfully must re-encode
// and estimate without blowing up. Run with `go test -fuzz FuzzUnmarshal`
// for continuous fuzzing; under plain `go test` the seed corpus runs.

func FuzzUnmarshalSketch(f *testing.F) {
	// Seed with valid encodings of every method plus structured garbage.
	for _, m := range Methods() {
		budget := 32
		if m == MethodSimHash {
			budget = 3
		}
		f.Add(marshalFixture(f, Config{Method: m, StorageWords: budget, Seed: 7}))
	}
	// WMH payloads carry a construction-variant byte; seed the dart
	// encoding and the retired value 2 so mutations explore the byte's
	// neighborhood (retired and unknown values must reject, known ones
	// must round-trip).
	f.Add(marshalFixture(f, Config{Method: MethodWMH, StorageWords: 32, Seed: 7, Dart: true}))
	f.Add(retiredVariantBlob(f))
	// The retired ICWS method byte: it must reject, and its neighbors
	// (SimHash, PS) must decode or reject cleanly.
	f.Add(retiredICWSBlob(f))
	f.Add([]byte{})
	f.Add([]byte{'I', 'P', 'S', 'K', 1, 0})
	f.Add([]byte{'I', 'P', 'S', 'K', 1, 200, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := UnmarshalSketch(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever decoded must round-trip and self-estimate.
		out, err := sk.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded sketch failed to re-encode: %v", err)
		}
		if len(out) == 0 {
			t.Fatal("re-encoded to nothing")
		}
		if _, err := Estimate(sk, sk); err != nil {
			t.Fatalf("decoded sketch failed self-estimate: %v", err)
		}
	})
}

// FuzzMerge: any pair of byte blobs — mixed methods, seeds, sizes,
// variants, truncated or mutated encodings — must either fail to decode,
// fail to merge with an error, or merge into a sketch that re-encodes,
// decodes again, and self-estimates. Never a panic, never an invalid
// sketch.
func FuzzMerge(f *testing.F) {
	// Seed with every golden wire format paired with itself (same-config
	// merges) and a couple of deliberate mismatches.
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		f.Fatal(err)
	}
	if len(golden) == 0 {
		f.Fatal("no golden files to seed the merge fuzzer")
	}
	var blobs [][]byte
	for _, path := range golden {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
		f.Add(blob, blob)
	}
	for i := 1; i < len(blobs); i++ {
		f.Add(blobs[i-1], blobs[i]) // cross-method / cross-variant pairs
	}
	// The retired WMH variant byte, in place of the golden file the
	// removed construction used to contribute: it must fail to decode on
	// either side of a merge, never reach it.
	retired := retiredVariantBlob(f)
	f.Add(retired, retired)
	f.Add(blobs[0], retired)
	// Likewise the retired ICWS method's golden sketch.
	icws := retiredICWSBlob(f)
	f.Add(icws, icws)
	f.Add(blobs[0], icws)
	f.Add([]byte{}, blobs[0])
	f.Add(blobs[0][:len(blobs[0])/2], blobs[0])

	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, errA := UnmarshalSketch(da)
		b, errB := UnmarshalSketch(db)
		if errA != nil || errB != nil {
			return // rejection is fine; panics are not
		}
		m, err := a.Merge(b)
		if err != nil {
			return // error-or-valid: error is the safe half
		}
		// Whatever merged must be a fully valid sketch: re-encodable,
		// re-decodable (the decoder enforces every structural invariant),
		// and usable by the estimators.
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("merged sketch failed to re-encode: %v", err)
		}
		if _, err := UnmarshalSketch(blob); err != nil {
			t.Fatalf("merged sketch does not satisfy the decoder's invariants: %v", err)
		}
		if _, err := Estimate(m, m); err != nil {
			t.Fatalf("merged sketch failed self-estimate: %v", err)
		}
		if _, err := Estimate(m, a); err != nil {
			t.Fatalf("merged sketch incompatible with its input: %v", err)
		}
	})
}

func FuzzVectorConstruction(f *testing.F) {
	f.Add(uint64(100), uint64(1), 2.5, uint64(7), -1.0)
	f.Add(uint64(0), uint64(0), 0.0, uint64(0), 0.0)
	f.Add(^uint64(0), uint64(5), 1e300, uint64(5), -1e300)
	f.Fuzz(func(t *testing.T, dim uint64, i1 uint64, v1 float64, i2 uint64, v2 float64) {
		m := map[uint64]float64{i1: v1, i2: v2}
		v, err := VectorFromMap(dim, m)
		if err != nil {
			return
		}
		// A constructed vector must satisfy its invariants.
		if v.Dim() != dim {
			t.Fatal("dimension mangled")
		}
		_ = v.Norm()
		_ = Dot(v, v)
	})
}

// fuzzIndexBytes builds a valid serialized index (two small tables) to
// seed the envelope fuzzers.
func fuzzIndexBytes(f *testing.F) []byte {
	f.Helper()
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 60, Seed: 5}, 1<<16)
	if err != nil {
		f.Fatal(err)
	}
	ix := NewSketchIndex()
	for _, name := range []string{"b", "a"} {
		tab, err := NewTable(name, []uint64{1, 4, 9}, map[string][]float64{"v": {1, -2, 3}})
		if err != nil {
			f.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			f.Fatal(err)
		}
		if err := ix.Add(sk); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := EncodeIndex(&buf, ix); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzUnmarshalTableSketch(f *testing.F) {
	enc := fuzzIndexBytes(f)
	// The first frame of the index envelope is a valid table bundle.
	frameLen := binary.LittleEndian.Uint32(enc[13:17])
	f.Add(enc[17 : 17+frameLen])
	// A dart-variant bundle seeds the fuzzer with the newest WMH variant
	// byte: flipping it must either decode as a coherent single-variant
	// bundle or reject — never mix variants silently.
	dts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 60, Seed: 5, Dart: true}, 1<<16)
	if err != nil {
		f.Fatal(err)
	}
	dtab, err := NewTable("d", []uint64{2, 5, 11}, map[string][]float64{"v": {4, -1, 2}})
	if err != nil {
		f.Fatal(err)
	}
	dsk, err := dts.SketchTable(dtab)
	if err != nil {
		f.Fatal(err)
	}
	dbytes, err := dsk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dbytes)
	f.Add([]byte{})
	f.Add([]byte{'I', 'P', 'S', 'T', 1})
	f.Add([]byte{'I', 'P', 'S', 'T', 1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		tsk, err := UnmarshalTableSketch(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever decoded must round-trip, search, and self-estimate.
		if tsk.Name == "" {
			t.Fatal("decoded table sketch with empty name")
		}
		if _, err := tsk.MarshalBinary(); err != nil {
			t.Fatalf("decoded table sketch failed to re-encode: %v", err)
		}
		for _, col := range tsk.Columns() {
			if _, err := EstimateJoinStats(tsk, col, tsk, col); err != nil {
				t.Fatalf("decoded table sketch failed self-estimate on %q: %v", col, err)
			}
		}
	})
}

func FuzzDecodeIndex(f *testing.F) {
	enc := fuzzIndexBytes(f)
	f.Add(enc)
	f.Add(enc[:13])
	f.Add([]byte{})
	f.Add([]byte{'I', 'P', 'S', 'X', 1, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := DecodeIndex(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever decoded must re-encode and decode to the same catalog.
		var buf bytes.Buffer
		if err := EncodeIndex(&buf, ix); err != nil {
			t.Fatalf("decoded index failed to re-encode: %v", err)
		}
		again, err := DecodeIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded index failed to decode: %v", err)
		}
		if again.Len() != ix.Len() {
			t.Fatalf("round trip changed Len %d -> %d", ix.Len(), again.Len())
		}
	})
}
