package ipsketch

import (
	"strings"
	"testing"
)

func TestSketchIndexRemove(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	if ix.Remove("missing") {
		t.Fatal("removed a missing table")
	}
	before := ix.Tables() // needle, noiseA, noiseB, disjoint

	if !ix.Remove("noiseA") {
		t.Fatal("failed to remove noiseA")
	}
	if ix.Len() != 3 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	if _, ok := ix.Get("noiseA"); ok {
		t.Fatal("removed table still resolvable")
	}
	// Scan order of the survivors is unchanged.
	want := []string{before[0], before[2], before[3]}
	got := ix.Tables()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order after remove %v, want %v", got, want)
		}
	}
	// Get still resolves every survivor (positions were re-indexed).
	for _, name := range want {
		if _, ok := ix.Get(name); !ok {
			t.Fatalf("%q unresolvable after remove", name)
		}
	}
	// Removing the rest leaves an empty but usable index.
	for _, name := range want {
		if !ix.Remove(name) {
			t.Fatalf("failed to remove %q", name)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", ix.Len())
	}
	res, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil || res != nil {
		t.Fatalf("empty index search = %v, %v", res, err)
	}
}

// TestSketchIndexRemoveSearchStability: removing an entry must leave the
// ranking of the remaining candidates identical to an index never
// containing it — the scan-order tiebreak may not shift.
func TestSketchIndexRemoveSearchStability(t *testing.T) {
	build := func(skip string) (*TableSketch, *SketchIndex) {
		t.Helper()
		_, qSk, full := buildSearchFixture(t)
		ix := NewSketchIndex()
		for _, name := range full.Tables() {
			if name == skip {
				continue
			}
			sk, _ := full.Get(name)
			if err := ix.Add(sk); err != nil {
				t.Fatal(err)
			}
		}
		return qSk, ix
	}
	qSk, removed := func() (*TableSketch, *SketchIndex) {
		_, qSk, ix := buildSearchFixture(t)
		if !ix.Remove("noiseA") {
			t.Fatal("remove failed")
		}
		return qSk, ix
	}()
	_, never := build("noiseA")
	a, _, err := removed.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := never.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if !resultsIdentical(a[i], b[i]) {
			t.Fatalf("result %d differs after removal: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStrictIndexPinsConfig(t *testing.T) {
	mk := func(cfg Config, keySpace uint64, name string) *TableSketch {
		t.Helper()
		ts, err := NewTableSketcher(cfg, keySpace)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewTable(name, []uint64{1, 2, 3}, map[string][]float64{"v": {1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	base := Config{Method: MethodWMH, StorageWords: 100, Seed: 1}

	ix := NewStrictSketchIndex()
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
		err := ix.Add(mk(tc.cfg, tc.keySpace, "bad"))
		if err == nil {
			t.Fatalf("%s mismatch accepted by strict Add", tc.label)
		}
		if !strings.Contains(err.Error(), "strict") {
			t.Fatalf("%s mismatch error %q does not mention the strict index", tc.label, err)
		}
	}
	if _, ok := ix.Get("bad"); ok {
		t.Fatal("rejected sketch was still added")
	}

	// The pin survives removal of every entry: an emptied strict index
	// keeps rejecting the same mismatches.
	ix.Remove("a")
	ix.Remove("b")
	if err := ix.Add(mk(Config{Method: MethodWMH, StorageWords: 100, Seed: 2}, 1<<16, "c")); err == nil {
		t.Fatal("pin forgotten after index emptied")
	}
	if err := ix.Add(mk(base, 1<<16, "c")); err != nil {
		t.Fatal(err)
	}

	// A lazy index still accepts everything.
	lax := NewSketchIndex()
	if err := lax.Add(mk(base, 1<<16, "a")); err != nil {
		t.Fatal(err)
	}
	if err := lax.Add(mk(Config{Method: MethodWMH, StorageWords: 100, Seed: 2}, 1<<16, "b")); err != nil {
		t.Fatalf("lazy index rejected eagerly: %v", err)
	}
}

func TestSketchIndexClone(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	cl := ix.Clone()
	if !cl.Remove("needle") {
		t.Fatal("clone remove failed")
	}
	if _, ok := ix.Get("needle"); !ok {
		t.Fatal("removing from the clone mutated the original")
	}
	if err := ix.Add(qSk); err != nil {
		t.Fatal(err)
	}
	if _, ok := cl.Get("query"); ok {
		t.Fatal("adding to the original mutated the clone")
	}
}
