package ipsketch

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestSerializeRoundTripAllMethods: marshal → unmarshal → the decoded
// sketch estimates identically against a freshly computed counterpart.
func TestSerializeRoundTripAllMethods(t *testing.T) {
	a, b := paperPair(t, 0.1, 21)
	for _, m := range Methods() {
		budget := 200
		if m == MethodSimHash {
			budget = 9
		}
		s, err := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sa, err := s.Sketch(a)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sb, err := s.Sketch(b)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want, err := Estimate(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}

		data, err := sa.MarshalBinary()
		if err != nil {
			t.Fatalf("%v marshal: %v", m, err)
		}
		decoded, err := UnmarshalSketch(data)
		if err != nil {
			t.Fatalf("%v unmarshal: %v", m, err)
		}
		if decoded.Method() != m {
			t.Fatalf("%v: decoded method %v", m, decoded.Method())
		}
		got, err := Estimate(decoded, sb)
		if err != nil {
			t.Fatalf("%v estimate after decode: %v", m, err)
		}
		if got != want {
			t.Errorf("%v: decoded estimate %v != original %v", m, got, want)
		}
		if decoded.StorageWords() != sa.StorageWords() {
			t.Errorf("%v: storage changed across round trip", m)
		}
	}
}

func TestSerializeEmptyVector(t *testing.T) {
	empty, err := NewVector(100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		budget := 100
		if m == MethodSimHash {
			budget = 3
		}
		s, _ := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 1})
		sk, err := s.Sketch(empty)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatalf("%v marshal: %v", m, err)
		}
		if _, err := UnmarshalSketch(data); err != nil {
			t.Fatalf("%v unmarshal empty: %v", m, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"nil":         nil,
		"short":       {1, 2, 3},
		"bad magic":   {'X', 'P', 'S', 'K', 1, 0},
		"bad version": {'I', 'P', 'S', 'K', 99, 0},
		"bad method":  {'I', 'P', 'S', 'K', 1, 200},
		"no payload":  {'I', 'P', 'S', 'K', 1, 0},
	}
	for name, data := range cases {
		if _, err := UnmarshalSketch(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestUnmarshalRejectsTruncatedPayload(t *testing.T) {
	a, _ := paperPair(t, 0.1, 23)
	for _, m := range Methods() {
		budget := 100
		if m == MethodSimHash {
			budget = 3
		}
		s, _ := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 2})
		sk, _ := s.Sketch(a)
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// Chop the payload at several points; every prefix must be
		// rejected (never panic, never succeed).
		for _, frac := range []int{2, 3, 7} {
			cut := 6 + (len(data)-6)/frac
			if _, err := UnmarshalSketch(data[:cut]); err == nil {
				t.Errorf("%v: truncated payload (cut=%d) accepted", m, cut)
			}
		}
	}
}

func TestUnmarshalRejectsCorruptCounts(t *testing.T) {
	a, _ := paperPair(t, 0.1, 29)
	s, _ := NewSketcher(Config{Method: MethodMH, StorageWords: 100, Seed: 2})
	sk, _ := s.Sketch(a)
	data, _ := sk.MarshalBinary()
	// Payload starts at offset 6: first field is M (u64 little-endian).
	// Zeroing it makes params invalid.
	corrupt := append([]byte(nil), data...)
	for i := 6; i < 14; i++ {
		corrupt[i] = 0
	}
	if _, err := UnmarshalSketch(corrupt); err == nil {
		t.Fatal("corrupt M accepted")
	}
}

// marshalFixture encodes the sketch of a small fixed vector under cfg.
func marshalFixture(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	v, err := VectorFromMap(1000, map[uint64]float64{1: 2, 30: -4, 999: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSketcher(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sk, err := s.Sketch(v)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// wmhVariantOffset is where the construction-variant byte sits in an
// enveloped WMH sketch: the 6-byte envelope, then M, Seed, L (8 each),
// quantized (1), resolved L, dim, norm (8 each) and empty (1).
const wmhVariantOffset = 6 + 3*8 + 1 + 3*8 + 1

// retiredVariantBlob is a well-formed WMH encoding whose variant byte is
// 2, the value the removed polynomial-log record process used to write.
func retiredVariantBlob(tb testing.TB) []byte {
	tb.Helper()
	data := marshalFixture(tb, Config{Method: MethodWMH, StorageWords: 32, Seed: 7})
	if data[wmhVariantOffset] != 0 {
		tb.Fatalf("variant byte of a record-process sketch is %d, want 0 (layout moved?)", data[wmhVariantOffset])
	}
	data[wmhVariantOffset] = 2
	return data
}

// TestUnmarshalRejectsRetiredWMHVariant: blobs written by the removed
// construction must fail to decode with an error that says so, and the
// variant bytes this build writes (0 record process, 4 dart) must keep
// decoding. (The retired dart variant 3 decodes too; see
// TestRetiredDartVariantDecodesButDoesNotMix.)
func TestUnmarshalRejectsRetiredWMHVariant(t *testing.T) {
	_, err := UnmarshalSketch(retiredVariantBlob(t))
	if err == nil || !strings.Contains(err.Error(), "FastLog variant was removed") {
		t.Fatalf("variant byte 2: err = %v, want the \"removed\" error", err)
	}
	for want, cfg := range map[byte]Config{
		0: {Method: MethodWMH, StorageWords: 32, Seed: 7},
		4: {Method: MethodWMH, StorageWords: 32, Seed: 7, Dart: true},
	} {
		data := marshalFixture(t, cfg)
		if data[wmhVariantOffset] != want {
			t.Errorf("%+v: variant byte %d, want %d", cfg, data[wmhVariantOffset], want)
		}
		if _, err := UnmarshalSketch(data); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// retiredDartBlob is the golden dart WMH sketch of the first dart
// construction, variant 3, whose dart values were rounded to multiples of
// 2⁻⁵³ (DESIGN.md §6).
func retiredDartBlob(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "retired", "wmh-dart.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	if data[wmhVariantOffset] != 3 {
		tb.Fatalf("retired dart fixture has variant byte %d, want 3", data[wmhVariantOffset])
	}
	return data
}

// TestRetiredDartVariantDecodesButDoesNotMix: a variant-3 dart sketch still
// decodes and re-encodes bit-exactly, and estimates against itself, but a
// dart sketch of this build — same configuration, same vector — refuses
// it with the construction-variant error, which says to re-sketch; so does
// a merge.
func TestRetiredDartVariantDecodesButDoesNotMix(t *testing.T) {
	blob := retiredDartBlob(t)
	old, err := UnmarshalSketch(blob)
	if err != nil {
		t.Fatalf("variant 3 no longer decodes: %v", err)
	}
	if re, err := old.MarshalBinary(); err != nil || !bytes.Equal(re, blob) {
		t.Fatalf("variant 3 does not re-encode bit-exactly (%v)", err)
	}
	if _, err := Estimate(old, old); err != nil {
		t.Fatalf("variant 3 self-estimate: %v", err)
	}
	var cfg Config
	for _, tc := range goldenCases() {
		if tc.name == "wmh-dart" {
			cfg = tc.cfg
		}
	}
	s, err := NewSketcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Sketch(goldenVector(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(old, fresh); err == nil || !strings.Contains(err.Error(), "different construction variants") || !strings.Contains(err.Error(), "re-sketch") {
		t.Fatalf("variant 3 vs 4: err = %v, want the variant error saying to re-sketch", err)
	}
	if _, err := fresh.Merge(old); err == nil || !strings.Contains(err.Error(), "re-sketch") {
		t.Fatalf("merging variant 3 into 4: err = %v, want the variant error saying to re-sketch", err)
	}
}

// retiredICWSBlob is a sketch envelope with method byte 5, written by the
// ICWS method before it was retired (the file was its golden sketch).
func retiredICWSBlob(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "retired", "icws-envelope.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	if data[5] != byte(methodICWSRemoved) {
		tb.Fatalf("retired fixture has method byte %d, want %d", data[5], methodICWSRemoved)
	}
	return data
}

// TestRetiredICWSSlot: the retired method's slot stays reserved, so an old
// ICWS sketch — alone, as a table bundle's key frame, or inside an index —
// fails to decode with an error that says ICWS was removed, and its name
// no longer parses.
func TestRetiredICWSSlot(t *testing.T) {
	blob := retiredICWSBlob(t)
	var tbl wire.Writer
	tbl.Raw(tableSketchMagic[:])
	tbl.Byte(tableSketchVersion)
	tbl.Str32("old")
	tbl.U64(1 << 20)
	tbl.U32(uint32(len(blob)))
	tbl.Raw(blob)
	tbl.U32(0)
	var idx wire.Writer
	idx.Raw(indexMagic[:])
	idx.Byte(indexVersion)
	idx.U64(1)
	idx.U32(uint32(len(tbl.Bytes())))
	idx.Raw(tbl.Bytes())

	_, err := UnmarshalSketch(blob)
	if !errors.Is(err, errICWSRemoved) {
		t.Errorf("UnmarshalSketch: err = %v, want errICWSRemoved", err)
	}
	_, err = UnmarshalTableSketch(tbl.Bytes())
	if !errors.Is(err, errICWSRemoved) {
		t.Errorf("UnmarshalTableSketch: err = %v, want errICWSRemoved", err)
	}
	_, err = DecodeIndex(bytes.NewReader(idx.Bytes()))
	if !errors.Is(err, errICWSRemoved) {
		t.Errorf("DecodeIndex: err = %v, want errICWSRemoved", err)
	}
	if !strings.Contains(errICWSRemoved.Error(), "ICWS was removed") {
		t.Errorf("removal error %q does not name ICWS", errICWSRemoved)
	}
	if err := (Config{Method: methodICWSRemoved, StorageWords: 100}).Validate(); !errors.Is(err, errICWSRemoved) {
		t.Errorf("Config.Validate: err = %v, want errICWSRemoved", err)
	}

	var m Method
	err = m.UnmarshalText([]byte("icws"))
	if err == nil {
		t.Fatal(`UnmarshalText("icws") accepted`)
	}
	live := Methods()
	if len(live) != 8 {
		t.Fatalf("%d live methods, want 8", len(live))
	}
	_, list, _ := strings.Cut(err.Error(), "want one of ")
	for _, lm := range live {
		if !strings.Contains(list, lm.String()) {
			t.Errorf("error %q does not list %v", err, lm)
		}
	}
	if strings.Count(list, ",") != len(live)-1 {
		t.Errorf("error %q does not list exactly the %d live methods", err, len(live))
	}
}
