package ipsketch

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// buildIndexFixture sketches a few small tables into an index whose scan
// order is deliberately NOT name-sorted, so order-preservation tests mean
// something.
func buildIndexFixture(t *testing.T) (*TableSketcher, *TableSketch, *SketchIndex) {
	t.Helper()
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 200, Seed: 3}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewSketchIndex()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		keys := make([]uint64, 50)
		vals := make([]float64, 50)
		va := make([]float64, 50)
		for i := range keys {
			keys[i] = uint64(i * (1 + int(name[0])%3))
			vals[i] = float64(i) * 0.5
			va[i] = float64(50 - i)
		}
		tab, err := NewTable(name, keys, map[string][]float64{"v": vals, "a": va})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(sk); err != nil {
			t.Fatal(err)
		}
	}
	qKeys := make([]uint64, 60)
	qVals := make([]float64, 60)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = float64(i)
	}
	qt, err := NewTable("query", qKeys, map[string][]float64{"v": qVals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}
	return ts, qSk, ix
}

func TestTableSketchRoundTrip(t *testing.T) {
	_, qSk, ix := buildIndexFixture(t)
	orig, _ := ix.Get("alpha")
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalTableSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "alpha" || dec.KeySpace() != orig.KeySpace() {
		t.Fatalf("decoded identity %q/%d", dec.Name, dec.KeySpace())
	}
	if got, want := dec.Columns(), orig.Columns(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("columns %v vs %v", got, want)
	}
	// Bit-exact estimation equivalence against an independent sketch.
	for _, col := range orig.Columns() {
		a, err := EstimateJoinStats(qSk, "v", orig, col)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EstimateJoinStats(qSk, "v", dec, col)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(SearchResult{Stats: a}, SearchResult{Stats: b}) {
			t.Fatalf("column %q: stats differ after round trip: %+v vs %+v", col, a, b)
		}
	}
	// Re-encode must be byte-identical (Columns() fixes the column order).
	blob2, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding changed bytes")
	}
}

func TestTableSketchDecodeRejectsHostileInputs(t *testing.T) {
	_, _, ix := buildIndexFixture(t)
	orig, _ := ix.Get("mid")
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalTableSketch(nil); !errors.Is(err, ErrBadTableEnvelope) {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := UnmarshalTableSketch([]byte("IPSKnope")); !errors.Is(err, ErrBadTableEnvelope) {
		t.Fatalf("wrong magic: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := UnmarshalTableSketch(bad); !errors.Is(err, ErrBadTableEnvelope) {
		t.Fatalf("wrong version: %v", err)
	}
	// Every truncation must error, never panic.
	for n := 0; n < len(blob); n += 7 {
		if _, err := UnmarshalTableSketch(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is rejected.
	if _, err := UnmarshalTableSketch(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTableSketchDecodeRejectsMixedConfigs(t *testing.T) {
	// Splice a column frame from a different seed into a valid bundle: the
	// eager compatibility check must reject it at decode time.
	mkBlob := func(seed uint64) []byte {
		ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 100, Seed: seed}, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable("t", []uint64{1, 2, 3}, map[string][]float64{"v": {1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := mkBlob(1), mkBlob(2)
	if len(a) != len(b) {
		t.Fatalf("fixture blobs differ in size: %d vs %d", len(a), len(b))
	}
	// The two blobs are structurally identical; graft the tail (the column
	// frames) of b onto the head (envelope + key sketch) of a. Find the
	// split: header (5) + name (4+1) + keyspace (8), then the key frame.
	// Rather than hand-computing offsets, replace the last third of a with
	// b's bytes and require *some* error (mixed seeds estimate garbage, so
	// any acceptance would be a real bug).
	cut := len(a) * 2 / 3
	spliced := append(append([]byte(nil), a[:cut]...), b[cut:]...)
	if dec, err := UnmarshalTableSketch(spliced); err == nil {
		// The splice landed inside one frame and happened to decode: the
		// compatibility check must still have rejected mixed seeds, so
		// reaching here means it silently accepted them.
		_ = dec
		t.Fatal("spliced bundle with mixed seeds accepted")
	}
}

func TestEncodeDecodeIndexRoundTrip(t *testing.T) {
	_, qSk, ix := buildIndexFixture(t)
	var buf bytes.Buffer
	if err := EncodeIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != ix.Len() {
		t.Fatalf("Len %d vs %d", dec.Len(), ix.Len())
	}
	// Scan order is preserved exactly.
	got, want := dec.Tables(), ix.Tables()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v vs %v", got, want)
		}
	}
	// Search rankings are bit-exact.
	for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
		a, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := dec.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("by=%d: %d vs %d results", by, len(a), len(b))
		}
		for i := range a {
			if !resultsIdentical(a[i], b[i]) {
				t.Fatalf("by=%d result %d differs: %+v vs %+v", by, i, a[i], b[i])
			}
		}
	}
}

func TestEncodeIndexEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeIndex(&buf, NewSketchIndex()); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 0 {
		t.Fatalf("Len = %d", dec.Len())
	}
}

func TestDecodeIndexRejectsHostileInputs(t *testing.T) {
	_, _, ix := buildIndexFixture(t)
	var buf bytes.Buffer
	if err := EncodeIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	if _, err := DecodeIndex(bytes.NewReader(nil)); !errors.Is(err, ErrBadIndexEnvelope) {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := DecodeIndex(bytes.NewReader([]byte("IPSTwrongmagichere"))); !errors.Is(err, ErrBadIndexEnvelope) {
		t.Fatalf("wrong magic: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[4] = 42
	if _, err := DecodeIndex(bytes.NewReader(bad)); !errors.Is(err, ErrBadIndexEnvelope) {
		t.Fatalf("wrong version: %v", err)
	}
	// A count far beyond the stream must fail on the first missing frame,
	// not allocate count entries.
	huge := append([]byte(nil), enc[:5]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := DecodeIndex(bytes.NewReader(huge)); err == nil {
		t.Fatal("huge count with no frames accepted")
	}
	// A frame length above the limit is rejected before allocation.
	overframe := append([]byte(nil), enc[:13]...)
	overframe = append(overframe, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeIndex(bytes.NewReader(overframe)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Every truncation must error, never panic.
	for n := 0; n < len(enc); n += 11 {
		if _, err := DecodeIndex(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Duplicate table names are rejected.
	one := NewSketchIndex()
	entry, _ := ix.Get("alpha")
	if err := one.Add(entry); err != nil {
		t.Fatal(err)
	}
	var dup bytes.Buffer
	if err := EncodeIndex(&dup, one); err != nil {
		t.Fatal(err)
	}
	d := dup.Bytes()
	frame := d[13:]
	two := append([]byte(nil), d...)
	two = append(two, frame...)
	two[5] = 2 // count
	if _, err := DecodeIndex(bytes.NewReader(two)); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// TestEncodeRejectsOversizedNames: anything that can be encoded must be
// decodable, so the encoder refuses names the decoder's caps would
// reject — a catalog can never save a snapshot it cannot load.
func TestEncodeRejectsOversizedNames(t *testing.T) {
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 60, Seed: 1}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", MaxNameLen+1)
	tab, err := NewTable(long, []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.MarshalBinary(); err == nil {
		t.Fatal("oversized table name encoded")
	}
	tab2, err := NewTable("ok", []uint64{1, 2}, map[string][]float64{long: {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := ts.SketchTable(tab2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk2.MarshalBinary(); err == nil {
		t.Fatal("oversized column name encoded")
	}
}
