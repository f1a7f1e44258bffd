package ipsketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wmh"
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

// corruptBlob is a valid sketch payload with one stored word overwritten.
type corruptBlob struct {
	name string
	data []byte
}

// nonFiniteBlobs corrupts, for WMH, MH, KMV, PS and TS, the last stored
// sample value with NaN and with +Inf, and for WMH also the last stored
// dart minimum. Every family encodes its values last, as a u64 count
// followed by the float64s, and WMH its minima just before them.
func nonFiniteBlobs(tb testing.TB) []corruptBlob {
	tb.Helper()
	var out []corruptBlob
	for _, m := range []Method{MethodWMH, MethodMH, MethodKMV, MethodPS, MethodTS} {
		data := marshalFixture(tb, Config{Method: m, StorageWords: 32, Seed: 7})
		n := 0
		for c := 1; 8*c+8 <= len(data); c++ {
			if binary.LittleEndian.Uint64(data[len(data)-8*c-8:]) == uint64(c) {
				n = c
				break
			}
		}
		if n == 0 {
			tb.Fatalf("%v: no stored values found in the fixture", m)
		}
		fields, offs := []string{"value"}, []int{len(data) - 8}
		if m == MethodWMH {
			fields, offs = append(fields, "minimum"), append(offs, len(data)-8*(n+2))
		}
		for i, off := range offs {
			for _, bad := range []float64{math.NaN(), math.Inf(1)} {
				c := append([]byte(nil), data...)
				binary.LittleEndian.PutUint64(c[off:], math.Float64bits(bad))
				out = append(out, corruptBlob{fmt.Sprintf("%v/%s=%v", m, fields[i], bad), c})
			}
		}
	}
	return out
}

// TestUnmarshalRejectsNonFiniteStoredValues: every sampling family refuses
// a payload whose stored value (or WMH minimum) is NaN or +Inf. Decoded,
// such a sketch would turn every estimate against it into NaN.
func TestUnmarshalRejectsNonFiniteStoredValues(t *testing.T) {
	for _, b := range nonFiniteBlobs(t) {
		if sk, err := UnmarshalSketch(b.data); err == nil {
			est, _ := Estimate(sk, sk)
			t.Errorf("%s: decoded (self-estimate %v)", b.name, est)
		}
	}
}

// wmhRangeBlobs corrupts the WMH sketch (M = 32, seed 1) of a 50-entry
// vector with finite stored words no construction produces: every
// minimum 0 (self-estimate +Inf), one minimum −1 or 5 (a skewed union
// estimate), and one stored value 0 (a collision divided by q_i = 0).
// Algorithm 3 stores minima in (0, 1] and Algorithm 4 values ±√(w/L)
// with 1 ≤ w ≤ L ≤ 2⁵⁰.
func wmhRangeBlobs(tb testing.TB) (honest []byte, bad []corruptBlob) {
	tb.Helper()
	const m = 32
	entries := map[uint64]float64{}
	for i := range 50 {
		entries[uint64(7*i+3)] = float64(i%7) - 2.5
	}
	honest = marshalVector(tb, Config{Method: MethodWMH, StorageWords: 49, Seed: 1}, 1000, entries)
	// The minima then the values, each a u64 count and m float64s, end
	// the payload.
	vals := len(honest) - 8*m
	mins := vals - 8 - 8*m
	if n := binary.LittleEndian.Uint64(honest[mins-8:]); n != m {
		tb.Fatalf("fixture has %d minima, want %d", n, m)
	}
	set := func(name string, offs []int, x float64) {
		c := append([]byte(nil), honest...)
		for _, off := range offs {
			binary.LittleEndian.PutUint64(c[off:], math.Float64bits(x))
		}
		bad = append(bad, corruptBlob{name, c})
	}
	var all []int
	for i := range m {
		all = append(all, mins+8*i)
	}
	set("every minimum 0", all, 0)
	set("one minimum -1", all[3:4], -1)
	set("one minimum 5", all[3:4], 5)
	set("one stored value 0", []int{vals + 8*5}, 0)
	return honest, bad
}

// marshalVector sketches the dim-dimensional vector with the given
// entries under cfg and encodes it.
func marshalVector(tb testing.TB, cfg Config, dim uint64, entries map[uint64]float64) []byte {
	tb.Helper()
	v, err := VectorFromMap(dim, entries)
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

// TestUnmarshalRejectsWMHSamplesOutOfRange: the WMH decoder refuses
// minima outside (0, 1] and stored values whose square is 0 or whose
// magnitude exceeds 1, and still accepts the honest payload and a
// non-empty sketch whose squared norm underflows to a stored norm of 0.
func TestUnmarshalRejectsWMHSamplesOutOfRange(t *testing.T) {
	honest, bad := wmhRangeBlobs(t)
	if _, err := UnmarshalSketch(honest); err != nil {
		t.Fatalf("honest payload refused: %v", err)
	}
	for _, b := range bad {
		if sk, err := UnmarshalSketch(b.data); err == nil {
			est, _ := Estimate(sk, sk)
			t.Errorf("%s: decoded (self-estimate %v)", b.name, est)
		}
	}
	tiny := marshalVector(t, Config{Method: MethodWMH, StorageWords: 49, Seed: 1}, 1000,
		map[uint64]float64{3: 1e-170, 10: -1e-170, 17: 1e-170})
	sk, err := UnmarshalSketch(tiny)
	if err != nil {
		t.Fatalf("sketch of an underflowing vector refused: %v", err)
	}
	if p, ok := sk.payload.(*wmh.Sketch); !ok || p.IsEmpty() || p.Norm() != 0 {
		t.Fatalf("fixture is not a non-empty sketch with norm 0")
	}
}

// supportBlobs are KMV and PS sketches of the 6-entry vector with values
// 1..6 (⟨a,a⟩ = 91) at K = 3, with a stored word no sketch of a
// 1000-dimensional vector can hold: the support size set to 2⁶³+5, which
// converted to int is negative and reads as "every entry retained" (the
// KMV self-estimate becomes the sum over the 3 retained entries, 29), and
// a PS stored index set to the dimension. Both families write the
// dimension word directly before the support size.
func supportBlobs(tb testing.TB) []corruptBlob {
	tb.Helper()
	const dim = 1000
	m := map[uint64]float64{}
	for i := range 6 {
		m[uint64(100*i+7)] = float64(i + 1)
	}
	v, err := VectorFromMap(dim, m)
	if err != nil {
		tb.Fatal(err)
	}
	var out []corruptBlob
	for _, cfg := range []Config{{Method: MethodKMV, StorageWords: 5, Seed: 7}, {Method: MethodPS, StorageWords: 6, Seed: 7}} {
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
		var w wire.Writer
		w.U64(dim)
		w.U64(6)
		at := bytes.Index(data, w.Bytes()) + 8 // the support-size word
		if at < 8 {
			tb.Fatalf("%v: no (dim, support) words in the payload", cfg.Method)
		}
		c := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(c[at:], 1<<63+5)
		out = append(out, corruptBlob{fmt.Sprintf("%v/support=2^63+5", cfg.Method), c})
		if cfg.Method == MethodPS {
			// support, squared norm, threshold rank, index count, indices.
			n := int(binary.LittleEndian.Uint64(data[at+24:]))
			c := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(c[at+32+8*(n-1):], dim)
			out = append(out, corruptBlob{fmt.Sprintf("%v/index=dim", cfg.Method), c})
		}
	}
	return out
}

// TestUnmarshalRejectsImpossibleSupport: KMV and PS refuse a payload whose
// support size exceeds the dimension (or int) and PS one whose stored
// index lies outside it.
func TestUnmarshalRejectsImpossibleSupport(t *testing.T) {
	for _, b := range supportBlobs(t) {
		if sk, err := UnmarshalSketch(b.data); err == nil {
			est, _ := Estimate(sk, sk)
			t.Errorf("%s: decoded (self-estimate %v, true 91)", b.name, est)
		}
	}
}

// boolBlobs sets a bool flag of a valid payload to 2: WMH's quantized flag
// and SimHash's empty flag in marshalFixture's seed-7 encodings, and MH's
// and WMH's empty flag in the same configurations' sketches of an empty
// vector. Offsets count from the start of the enveloped payload: the
// 6-byte envelope, then each family's fixed-width header words.
func boolBlobs(tb testing.TB) []corruptBlob {
	tb.Helper()
	empty := func(cfg Config) []byte {
		tb.Helper()
		v, err := NewVector(1000, nil, nil)
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
	wmhCfg := Config{Method: MethodWMH, StorageWords: 32, Seed: 7}
	mhCfg := Config{Method: MethodMH, StorageWords: 32, Seed: 7}
	cases := []struct {
		name string
		data []byte
		at   int
	}{
		{"WMH/quantized=2", marshalFixture(tb, wmhCfg), 30},
		{"SimHash/empty=2", marshalFixture(tb, Config{Method: MethodSimHash, StorageWords: 3, Seed: 7}), 38},
		{"MH/empty=2 (empty vector)", empty(mhCfg), 30},
		{"WMH/empty=2 (empty vector)", empty(wmhCfg), 55},
	}
	out := make([]corruptBlob, len(cases))
	for i, c := range cases {
		if c.data[c.at] > 1 {
			tb.Fatalf("%s: byte %d is %d, not a bool flag", c.name, c.at, c.data[c.at])
		}
		data := append([]byte(nil), c.data...)
		data[c.at] = 2
		out[i] = corruptBlob{c.name, data}
	}
	return out
}

// TestUnmarshalRejectsNonCanonicalBool: a bool flag is 0 or 1. A payload
// whose flag holds any other byte is refused, since it would decode and
// then re-encode the flag as 1, to bytes other than those it was read from.
func TestUnmarshalRejectsNonCanonicalBool(t *testing.T) {
	for _, b := range boolBlobs(t) {
		t.Run(b.name, func(t *testing.T) {
			if _, err := UnmarshalSketch(b.data); err == nil {
				t.Errorf("%d-byte payload decoded", len(b.data))
			}
		})
	}
}

// linearCountBlobs builds linear-method envelopes whose header asks for
// more counters, rows or words than Go can allocate, with an empty list
// behind it: a CountSketch of 2⁶² buckets × 4 repetitions (a product
// that overflows int to 0), a JL sketch of 2⁶¹ rows and a SimHash sketch
// of 2⁶² bits. A decoder that sized the list from the header alone would
// panic on each instead of refusing it.
func linearCountBlobs() []corruptBlob {
	envelope := func(m Method) *wire.Writer {
		var w wire.Writer
		w.Raw(serializedMagic[:])
		w.Byte(serializedVersion)
		w.Byte(byte(m))
		return &w
	}
	cs := envelope(MethodCountSketch)
	cs.U64(1 << 62) // buckets
	cs.U64(4)       // reps
	cs.U64(7)       // seed
	cs.U64(1000)    // dim
	cs.F64s(nil)
	jl := envelope(MethodJL)
	jl.U64(1 << 61) // M
	jl.U64(7)
	jl.U64(1000)
	jl.F64s(nil)
	sh := envelope(MethodSimHash)
	sh.U64(1 << 62) // bits
	sh.U64(7)
	sh.U64(1000)
	sh.F64(1)      // norm
	sh.Bool(false) // empty
	sh.U64s(nil)
	return []corruptBlob{
		{"CS/buckets=2^62,reps=4", cs.Bytes()},
		{"JL/M=2^61", jl.Bytes()},
		{"SimHash/bits=2^62", sh.Bytes()},
	}
}

// TestUnmarshalRejectsLinearCountMismatch: a linear sketch whose counter,
// row or word list is not exactly its header's count is refused with an
// error — no list is rebuilt from the header, and no count overflows.
func TestUnmarshalRejectsLinearCountMismatch(t *testing.T) {
	for _, b := range linearCountBlobs() {
		t.Run(b.name, func(t *testing.T) {
			if _, err := UnmarshalSketch(b.data); err == nil {
				t.Errorf("%d-byte payload decoded", len(b.data))
			}
		})
	}
}

// marshalFixture encodes the sketch of a small fixed vector under cfg.
func marshalFixture(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	return marshalVector(tb, cfg, 1000, map[uint64]float64{1: 2, 30: -4, 999: 0.5})
}

// wmhVariantOffset is where the construction-variant byte sits in an
// enveloped WMH sketch: the 6-byte envelope, then M, Seed, L (8 each),
// quantized (1), resolved L, dim, norm (8 each) and empty (1).
const wmhVariantOffset = 6 + 3*8 + 1 + 3*8 + 1

// retiredWMHBlob reads a retired WMH golden sketch from testdata/retired
// and checks that it carries the construction-variant byte vr.
func retiredWMHBlob(tb testing.TB, name string, vr byte) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "retired", name))
	if err != nil {
		tb.Fatal(err)
	}
	if data[wmhVariantOffset] != vr {
		tb.Fatalf("%s has variant byte %d, want %d (layout moved?)", name, data[wmhVariantOffset], vr)
	}
	return data
}

// retiredRecordBlob is the golden WMH sketch of the record process, the
// default construction before the dart construction replaced it: variant
// 0.
func retiredRecordBlob(tb testing.TB) []byte {
	return retiredWMHBlob(tb, "wmh-record.golden", 0)
}

// retiredVariantBlob is a well-formed WMH encoding whose variant byte is
// 2, the value the removed polynomial-log record process used to write.
func retiredVariantBlob(tb testing.TB) []byte {
	tb.Helper()
	data := retiredRecordBlob(tb)
	data[wmhVariantOffset] = 2
	return data
}

// retiredWMHBlobs are WMH sketches of the retired constructions, each
// with the variant byte it shipped with: the record process's goldens
// (variant 0, plain and quantized), the record golden relabeled as
// explicit slot hashing (1) and as the removed polynomial-log record
// process (2), the first dart construction's golden (variant 3, dart
// values rounded to multiples of 2⁻⁵³, DESIGN.md §6), and that golden
// with its 42 minima zeroed, which self-estimated +Inf while variant 3
// still decoded.
func retiredWMHBlobs(tb testing.TB) []corruptBlob {
	tb.Helper()
	slots := retiredRecordBlob(tb)
	slots[wmhVariantOffset] = 1
	dart := retiredWMHBlob(tb, "wmh-dart.golden", 3)
	// The minima follow the variant byte: a u64 count, then m float64s.
	zero := append([]byte(nil), dart...)
	mins := wmhVariantOffset + 1
	m := int(binary.LittleEndian.Uint64(zero[mins:]))
	if m != 42 {
		tb.Fatalf("wmh-dart.golden has %d minima, want 42", m)
	}
	clear(zero[mins+8 : mins+8+8*m])
	return []corruptBlob{
		{"record", retiredRecordBlob(tb)},
		{"record-quantize", retiredWMHBlob(tb, "wmh-record-quantize.golden", 0)},
		{"variant 1", slots},
		{"variant 2", retiredVariantBlob(tb)},
		{"dart variant 3", dart},
		{"dart variant 3, minima 0", zero},
	}
}

// TestUnmarshalRejectsRetiredWMHVariant: the variant byte this build
// writes is 4 whatever Config.Dart says, and blobs written by the removed
// polynomial-log construction (byte 2) fail to decode with an error that
// says to re-sketch, as every retired construction's do
// (TestRetiredWMHVariants).
func TestUnmarshalRejectsRetiredWMHVariant(t *testing.T) {
	_, err := UnmarshalSketch(retiredVariantBlob(t))
	if err == nil || !strings.Contains(err.Error(), "re-sketch") {
		t.Fatalf("variant byte 2: err = %v, want an error saying to re-sketch", err)
	}
	fresh := marshalFixture(t, Config{Method: MethodWMH, StorageWords: 32, Seed: 7})
	if fresh[wmhVariantOffset] != 4 {
		t.Errorf("variant byte %d, want 4", fresh[wmhVariantOffset])
	}
	if dart := marshalFixture(t, Config{Method: MethodWMH, StorageWords: 32, Seed: 7, Dart: true}); !bytes.Equal(dart, fresh) {
		t.Error("the deprecated Config.Dart changes the sketch bytes")
	}
	if _, err := UnmarshalSketch(fresh); err != nil {
		t.Errorf("variant byte 4: %v", err)
	}
}

// retiredFrames wraps a sketch blob as the key frame of a one-column
// table bundle, and that bundle as the one table of an index.
func retiredFrames(blob []byte) (table, index []byte) {
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
	return tbl.Bytes(), idx.Bytes()
}

// TestRetiredWMHVariants: WMH's decoder accepts only the dart
// construction's variant byte, 4, so a sketch of a retired construction —
// alone, as a table bundle's key frame, or inside an index — fails to
// decode with an error that says to re-sketch.
func TestRetiredWMHVariants(t *testing.T) {
	for _, b := range retiredWMHBlobs(t) {
		t.Run(b.name, func(t *testing.T) {
			tbl, idx := retiredFrames(b.data)
			_, errSk := UnmarshalSketch(b.data)
			_, errTbl := UnmarshalTableSketch(tbl)
			_, errIdx := DecodeIndex(bytes.NewReader(idx))
			for _, dec := range []struct {
				name string
				err  error
			}{{"UnmarshalSketch", errSk}, {"UnmarshalTableSketch", errTbl}, {"DecodeIndex", errIdx}} {
				if dec.err == nil || !strings.Contains(dec.err.Error(), "re-sketch") {
					t.Errorf("%s: err = %v, want an error saying to re-sketch", dec.name, dec.err)
				}
			}
		})
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
	tbl, idx := retiredFrames(blob)

	_, err := UnmarshalSketch(blob)
	if !errors.Is(err, errICWSRemoved) {
		t.Errorf("UnmarshalSketch: err = %v, want errICWSRemoved", err)
	}
	_, err = UnmarshalTableSketch(tbl)
	if !errors.Is(err, errICWSRemoved) {
		t.Errorf("UnmarshalTableSketch: err = %v, want errICWSRemoved", err)
	}
	_, err = DecodeIndex(bytes.NewReader(idx))
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

// TestUnmarshalTableSketchRefusesUnorderedColumns: the encoder writes a
// bundle's columns in ascending name order, and the decoder takes only
// that order — a column at or below its predecessor is refused as a
// duplicate or as out of order. SketchTable itself keeps one sketch per
// distinct column, whatever order and repetition the caller names them in.
func TestUnmarshalTableSketchRefusesUnorderedColumns(t *testing.T) {
	ts, err := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 3}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable("t", []uint64{1, 5, 9}, map[string][]float64{"a": {1, 2, 3}, "b": {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab, "b", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sk.Columns()); got != "[a b]" {
		t.Fatalf("columns %s, want [a b]", got)
	}
	// encode writes sk's envelope with its column records in the given
	// order (indexes into Columns()).
	encode := func(order ...int) []byte {
		var w wire.Writer
		w.Raw(tableSketchMagic[:])
		w.Byte(tableSketchVersion)
		w.Str32(sk.Name)
		w.U64(sk.keySpace)
		frame := func(s *Sketch) {
			b, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			w.U32(uint32(len(b)))
			w.Raw(b)
		}
		frame(sk.key)
		w.U32(uint32(len(order)))
		for _, i := range order {
			w.Str32(sk.cols[i])
			frame(sk.val[i])
			frame(sk.sqVal[i])
		}
		return w.Bytes()
	}
	want, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(0, 1), want) {
		t.Fatal("the hand-built envelope differs from MarshalBinary's")
	}
	for _, tc := range []struct {
		order []int
		err   string
	}{{[]int{1, 0}, "out of order"}, {[]int{0, 0}, "duplicate"}, {[]int{0, 1, 1}, "duplicate"}} {
		if _, err := UnmarshalTableSketch(encode(tc.order...)); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("columns %v: got %v, want an error containing %q", tc.order, err, tc.err)
		}
	}
}
