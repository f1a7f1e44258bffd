package ipsketch

import (
	"strings"
	"testing"
)

// pinTestSketch sketches a three-row, one-column table under cfg and
// keySpace.
func pinTestSketch(t *testing.T, cfg Config, keySpace uint64, name string, cols map[string][]float64) *TableSketch {
	t.Helper()
	ts, err := NewTableSketcher(cfg, keySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(name, []uint64{1, 2, 3}, cols)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestStrictIndexPinsConfig: every index pins the configuration of its
// first sketch, and Add refuses a sketch that differs in seed, method,
// size or key space.
func TestStrictIndexPinsConfig(t *testing.T) {
	v := map[string][]float64{"v": {1, 2, 3}}
	mk := func(cfg Config, keySpace uint64, name string) *TableSketch {
		return pinTestSketch(t, cfg, keySpace, name, v)
	}
	base := Config{Method: MethodWMH, StorageWords: 100, Seed: 1}

	ix := NewSketchIndex()
	if err := ix.Add(mk(base, 1<<16, "a")); err != nil {
		t.Fatal(err)
	}
	// Compatible sketch: accepted, including as a replacement.
	if err := ix.Add(mk(base, 1<<16, "b")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(mk(base, 1<<16, "a")); err != nil {
		t.Fatalf("compatible replacement rejected: %v", err)
	}

	for _, tc := range []struct {
		label    string
		cfg      Config
		keySpace uint64
	}{
		{"seed", Config{Method: MethodWMH, StorageWords: 100, Seed: 2}, 1 << 16},
		{"method", Config{Method: MethodKMV, StorageWords: 100, Seed: 1}, 1 << 16},
		{"size", Config{Method: MethodWMH, StorageWords: 200, Seed: 1}, 1 << 16},
		{"keyspace", base, 1 << 17},
	} {
		for _, name := range []string{"bad", "a"} { // new name, replacement
			err := ix.Add(mk(tc.cfg, tc.keySpace, name))
			if err == nil {
				t.Fatalf("%s mismatch accepted by Add of %q", tc.label, name)
			}
			if !strings.Contains(err.Error(), `adding "`+name+`"`) {
				t.Fatalf("%s mismatch error %q does not name the refused table", tc.label, err)
			}
		}
	}
	if _, ok := ix.Get("bad"); ok {
		t.Fatal("rejected sketch was still added")
	}
	if got, _ := ix.Get("a"); got.CompatibleWith(mk(base, 1<<16, "x")) != nil {
		t.Fatal("a rejected replacement overwrote the entry")
	}

	// The deprecated constructor builds the same pinned index.
	old := NewStrictSketchIndex()
	if err := old.Add(mk(base, 1<<16, "a")); err != nil {
		t.Fatal(err)
	}
	if err := old.Add(mk(Config{Method: MethodWMH, StorageWords: 100, Seed: 2}, 1<<16, "b")); err == nil {
		t.Fatal("NewStrictSketchIndex accepted a seed mismatch")
	}
}

// TestSearchChecksQueryOncePerIndex: a search checks the query against
// each index's pinned configuration and for the query column before it
// scans, so a mismatch is an error even where no candidate would be
// scored — an index of key-only tables, an empty index — packed or not.
func TestSearchChecksQueryOncePerIndex(t *testing.T) {
	base := Config{Method: MethodWMH, StorageWords: 100, Seed: 1}
	ix := NewSketchIndex()
	for _, name := range []string{"k1", "k2"} {
		if err := ix.Add(pinTestSketch(t, base, 1<<16, name, nil)); err != nil {
			t.Fatal(err)
		}
	}
	good := pinTestSketch(t, base, 1<<16, "q", map[string][]float64{"v": {1, 2, 3}})
	other := pinTestSketch(t, Config{Method: MethodWMH, StorageWords: 100, Seed: 2}, 1<<16, "q", map[string][]float64{"v": {1, 2, 3}})
	for _, packed := range []bool{false, true} {
		if packed {
			ix.BuildColumnar()
		}
		if res, _, err := ix.Search(Query{Sketch: good, Column: "v", K: -1}); err != nil || len(res) != 0 {
			t.Fatalf("packed=%v: compatible query over key-only tables = %v, %v", packed, res, err)
		}
		_, _, err := ix.Search(Query{Sketch: other, Column: "v", K: -1})
		if err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("packed=%v: query of another seed: err = %v, want the compatibility error", packed, err)
		}
	}

	for _, ixs := range [][]*SketchIndex{{NewSketchIndex()}, {ix}, nil} {
		_, _, err := SearchIndexes(ixs, Query{Sketch: good, Column: "nope", K: 5})
		if err == nil || !strings.Contains(err.Error(), `no column "nope"`) {
			t.Fatalf("%d indexes: missing query column: err = %v", len(ixs), err)
		}
	}
}
