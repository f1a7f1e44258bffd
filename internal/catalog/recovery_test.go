package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	ipsketch "repro"
)

// snapshotFixture saves a small catalog and returns the snapshot bytes.
func snapshotFixture(t testing.TB, n int) []byte {
	t.Helper()
	_, sks := fixtureSketches(t, n)
	c := New(Options{Shards: 4})
	for _, sk := range sks {
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "snap.ipsx")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadBytes writes data as a snapshot file and loads it into a fresh
// catalog, converting any panic into a test failure.
func loadBytes(t testing.TB, data []byte) (int, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.ipsx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("loading corrupted snapshot panicked: %v", r)
		}
	}()
	return New(Options{}).Load(path)
}

// TestLoadTruncatedSnapshot: every truncation point of a valid snapshot
// either loads some clean prefix semantics (never happens with this
// envelope: decode is all-or-nothing) or returns a typed *SnapshotError —
// and never panics.
func TestLoadTruncatedSnapshot(t *testing.T) {
	data := snapshotFixture(t, 6)
	// Exhaustive truncation is quadratic in snapshot size; step through
	// representative offsets plus the envelope-critical first 64 bytes.
	offsets := make([]int, 0, 128)
	for off := 0; off < len(data) && off < 64; off++ {
		offsets = append(offsets, off)
	}
	for off := 64; off < len(data); off += 97 {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, len(data)-1)
	for _, off := range offsets {
		n, err := loadBytes(t, data[:off])
		if err == nil {
			t.Fatalf("truncation at %d loaded %d tables silently", off, n)
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("truncation at %d: error is not a *SnapshotError: %v", off, err)
		}
	}
}

// TestLoadBitFlippedSnapshot: single-bit corruption anywhere in the
// header or frame structure must be loud and typed, never a panic.
// (A flip inside a sketch's payload bytes may legitimately decode — the
// envelope checks structure, not semantic content — so only structural
// failures are asserted to error; every offset is asserted not to panic.)
func TestLoadBitFlippedSnapshot(t *testing.T) {
	data := snapshotFixture(t, 4)
	step := len(data)/257 + 1
	flips, errs := 0, 0
	for off := 0; off < len(data); off += step {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		flips++
		_, err := loadBytes(t, mut)
		if err != nil {
			errs++
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("flip at %d: error is not a *SnapshotError: %v", off, err)
			}
		}
	}
	if errs == 0 {
		t.Fatalf("no flip among %d was detected", flips)
	}
}

// FuzzLoadSnapshot seeds the corrupted-snapshot corpus: truncations and
// bit flips of a real snapshot plus hostile garbage. Load must never
// panic and never succeed on structurally broken input without a typed
// error.
func FuzzLoadSnapshot(f *testing.F) {
	data := snapshotFixture(f, 3)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:7])
	for _, off := range []int{0, 5, len(data) / 3, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte("IPSXgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ipsx")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Skip()
		}
		c := New(Options{})
		n, err := c.Load(path)
		if err != nil {
			return // loud failure is the contract; the assert is "no panic"
		}
		if n != c.Len() {
			t.Fatalf("loaded %d but catalog holds %d", n, c.Len())
		}
	})
}

// TestMutationHookOrderAndVeto: the OnMutate hook sees every mutation in
// publish order, merge hooks carry the partial and the tag, and a hook
// error vetoes the mutation entirely.
func TestMutationHookOrderAndVeto(t *testing.T) {
	_, sks := fixtureSketches(t, 4)
	var seen []Mutation
	veto := false
	c := New(Options{Shards: 2, OnMutate: func(m Mutation) error {
		if veto {
			return errors.New("log full")
		}
		seen = append(seen, m)
		return nil
	}})

	if err := c.Put(sks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeTagged(sks[0], "req-9"); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Delete(sks[0].Name); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	want := []struct {
		op  MutationOp
		tag string
	}{{MutationPut, ""}, {MutationMerge, "req-9"}, {MutationDelete, ""}}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %d mutations", len(seen))
	}
	for i, w := range want {
		if seen[i].Op != w.op || seen[i].Tag != w.tag || seen[i].Name != sks[0].Name {
			t.Fatalf("mutation %d = %+v", i, seen[i])
		}
		if w.op != MutationDelete && seen[i].Sketch == nil {
			t.Fatalf("mutation %d carries no sketch", i)
		}
	}
	// The merge hook must carry the incoming partial, not the merged
	// result: replay re-merges it.
	if seen[1].Sketch != sks[0] {
		t.Fatal("merge hook did not receive the incoming partial")
	}

	// A vetoed mutation must not publish.
	veto = true
	if err := c.Put(sks[1]); err == nil {
		t.Fatal("vetoed put succeeded")
	}
	if _, ok := c.Get(sks[1].Name); ok {
		t.Fatal("vetoed put was published")
	}
	if _, err := c.MergeTagged(sks[2], ""); err == nil {
		t.Fatal("vetoed merge succeeded")
	}
	if err := c.Put(sks[3]); err == nil {
		t.Fatal("vetoed put succeeded")
	}
	// A vetoed delete leaves the table in place.
	veto = false
	if err := c.Put(sks[3]); err != nil {
		t.Fatal(err)
	}
	veto = true
	if ok, err := c.Delete(sks[3].Name); err == nil || ok {
		t.Fatalf("vetoed delete: ok=%v err=%v", ok, err)
	}
	if _, ok := c.Get(sks[3].Name); !ok {
		t.Fatal("vetoed delete removed the table")
	}
}

// TestMutationHookReplayReconstructs: applying the hooked mutations to a
// second catalog reproduces the first one bit-exactly — the exactness
// property WAL replay rests on.
func TestMutationHookReplayReconstructs(t *testing.T) {
	qSk, sks := fixtureSketches(t, 8)
	var log []Mutation
	c := New(Options{Shards: 4, OnMutate: func(m Mutation) error {
		log = append(log, m)
		return nil
	}})
	for i, sk := range sks {
		switch i % 3 {
		case 0:
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := c.MergeTagged(sk, fmt.Sprintf("r%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ok, err := c.Delete(sks[1].Name); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}

	replayed := New(Options{Shards: 7})
	for _, m := range log {
		switch m.Op {
		case MutationPut:
			if err := replayed.Put(m.Sketch); err != nil {
				t.Fatal(err)
			}
		case MutationMerge:
			if _, err := replayed.Merge(m.Sketch); err != nil {
				t.Fatal(err)
			}
		case MutationDelete:
			if _, err := replayed.Delete(m.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := c.SearchTopK(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.SearchTopK(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, want, "hook replay")
}
