package ipsketch

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The serialized wire format is a compatibility contract: sketches written
// by one build of the library must decode bit-exactly under every later
// build. The golden files under testdata/golden pin the exact encoding of
// one fixed sketch per method (plus the WMH variants); any refactor of the
// dispatch or serialization layers must leave them byte-identical.
//
// Regenerate with `go test -run TestGoldenSketches -update` ONLY when a
// new method is added (new methods add files; existing files must never
// change) or the envelope version is deliberately bumped.
//
// A retired method's golden file moves to testdata/retired, where the
// retirement tests check that its bytes fail to decode with an error that
// names the removal. A retired construction variant's golden file moves
// there too, and its bytes fail to decode with an error that says to
// re-sketch (testdata/retired/wmh-record*.golden, the record process's
// variant 0, and wmh-dart.golden, dart variant 3). WMH's cases
// keep their names and read the current construction's files,
// wmh-dart.golden and wmh-dart-quantize.golden.

var updateGolden = flag.Bool("update", false, "rewrite golden sketch files")

// goldenVector is the fixed vector every golden sketch summarizes: mixed
// signs, magnitudes spanning several decades, irregular index gaps.
func goldenVector(t testing.TB) Vector {
	t.Helper()
	idx := make([]uint64, 40)
	vals := make([]float64, 40)
	for i := range idx {
		idx[i] = uint64(i*i*3 + i + 1) // irregular, strictly increasing
		sign := 1.0
		if i%3 == 1 {
			sign = -1
		}
		vals[i] = sign * (0.25 + float64(i%7)) * pow10(i%5-2)
	}
	v, err := NewVector(1<<20, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func pow10(e int) float64 {
	x := 1.0
	for ; e > 0; e-- {
		x *= 10
	}
	for ; e < 0; e++ {
		x /= 10
	}
	return x
}

// goldenCase is one golden wire format: the configuration that writes it
// and the file under testdata/golden that pins it.
type goldenCase struct {
	name, file string
	cfg        Config
}

// goldenCases enumerates every wire format the library can produce: one
// default configuration per method plus WMH's quantized one.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, m := range Methods() {
		budget := 64
		if m == MethodSimHash {
			budget = 3
		}
		name, file := strings.ToLower(m.String()), strings.ToLower(m.String())
		if m == MethodWMH {
			file = "wmh-dart"
		}
		cases = append(cases, goldenCase{name, file, Config{Method: m, StorageWords: budget, Seed: 12345}})
	}
	return append(cases, goldenCase{"wmh-quantize", "wmh-dart-quantize", Config{Method: MethodWMH, StorageWords: 64, Seed: 12345, Quantize: true}})
}

func TestGoldenSketches(t *testing.T) {
	v := goldenVector(t)
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSketcher(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := s.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			data, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.file+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update after adding a method): %v", err)
			}
			// The encoder must still produce the historical bytes...
			if !bytes.Equal(data, golden) {
				t.Fatalf("wire format changed: fresh sketch encodes to %d bytes != golden %d bytes (%s)",
					len(data), len(golden), diffAt(data, golden))
			}
			// ...and the historical bytes must decode into a sketch that is
			// fully interoperable with freshly computed ones.
			dec, err := UnmarshalSketch(golden)
			if err != nil {
				t.Fatalf("golden bytes no longer decode: %v", err)
			}
			re, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, golden) {
				t.Fatalf("golden sketch does not re-encode bit-exactly (%s)", diffAt(re, golden))
			}
			want, err := Estimate(sk, sk)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Estimate(dec, sk)
			if err != nil {
				t.Fatalf("golden sketch incompatible with fresh sketch: %v", err)
			}
			if got != want {
				t.Fatalf("golden sketch estimates %v, fresh %v", got, want)
			}
		})
	}
}

// diffAt describes the first byte position where two encodings differ.
func diffAt(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first diff at byte %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}
