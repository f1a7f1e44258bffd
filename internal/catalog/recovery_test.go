package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	ipsketch "repro"
	"repro/internal/hashing"
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

// TestLoadPublishesOncePerShard: Load stages the whole snapshot and builds
// each shard once — recovery costs one index build per shard, not one per
// table.
func TestLoadPublishesOncePerShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ipsx")
	if err := os.WriteFile(path, snapshotFixture(t, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	var publishes countingObserver
	c := New(Options{Shards: 4, PublishObserver: &publishes})
	if n, err := c.Load(path); err != nil || n != 40 || c.Len() != 40 {
		t.Fatalf("Load = %d, %v; Len %d", n, err, c.Len())
	}
	if publishes.n < 1 || publishes.n > c.Shards() {
		t.Fatalf("loading 40 tables into %d shards published %d times", c.Shards(), publishes.n)
	}
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
	want, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := replayed.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, want, "hook replay")
}

// countingObserver counts publishes.
type countingObserver struct{ n int }

func (o *countingObserver) Observe(float64) { o.n++ }

// restoreOps builds a seeded random sequence of Put/Merge/Delete over a
// dozen names — few enough that they collide within a shard at every
// stripe count below — with MH sketches (any two merge exactly) of one or
// two columns, plus a query sketch that overlaps them all.
func restoreOps(t *testing.T, n int) (*ipsketch.TableSketch, []Mutation) {
	t.Helper()
	ts, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 5}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(2024)
	sketch := func(name string, rows int) *ipsketch.TableSketch {
		keys := make([]uint64, rows)
		cols := map[string][]float64{"v": make([]float64, rows)}
		if rng.Intn(3) == 0 {
			cols["w"] = make([]float64, rows)
		}
		next := uint64(0)
		for i := range keys {
			next += 1 + uint64(rng.Intn(4))
			keys[i] = next
			for _, vals := range cols {
				vals[i] = rng.Norm()
			}
		}
		tab, err := ipsketch.NewTable(name, keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	ops := make([]Mutation, n)
	for i := range ops {
		name := fmt.Sprintf("n%02d", rng.Intn(12))
		switch rng.Intn(5) {
		case 0:
			ops[i] = Mutation{Op: MutationDelete, Name: name}
		case 1, 2:
			ops[i] = Mutation{Op: MutationPut, Name: name, Sketch: sketch(name, 40+rng.Intn(60))}
		default:
			ops[i] = Mutation{Op: MutationMerge, Name: name, Sketch: sketch(name, 40+rng.Intn(60))}
		}
	}
	return sketch("query", 150), ops
}

// TestRestoreMatchesLive: a mutation sequence staged through Restore
// leaves the catalog exactly where applying it live does — same tables,
// same sketch bytes, same rankings bit for bit, full scan and lsh — while
// never running the mutation hook and publishing each touched shard once
// per restore, not once per record. A restore that fails midway publishes
// nothing and leaves no shard locked.
func TestRestoreMatchesLive(t *testing.T) {
	query, ops := restoreOps(t, 80)
	lsh := ipsketch.LSHParams{Bands: 16, Rows: 2}
	for _, shards := range []int{1, 4, 16} {
		for _, lshp := range []*ipsketch.LSHParams{nil, &lsh} {
			label := fmt.Sprintf("shards=%d lsh=%v", shards, lshp != nil)
			var log []Mutation
			var liveMerged []bool
			live := New(Options{Shards: shards, LSH: lshp, OnMutate: func(m Mutation) error {
				log = append(log, m)
				return nil
			}})
			for _, op := range ops {
				var err error
				switch op.Op {
				case MutationPut:
					err = live.Put(op.Sketch)
				case MutationMerge:
					var merged bool
					merged, err = live.Merge(op.Sketch)
					liveMerged = append(liveMerged, merged)
				case MutationDelete:
					_, err = live.Delete(op.Name)
				}
				if err != nil {
					t.Fatalf("%s: live %v %s: %v", label, op.Op, op.Name, err)
				}
			}
			deleted := slices.ContainsFunc(log, func(m Mutation) bool { return m.Op == MutationDelete })
			if !deleted || !slices.Contains(liveMerged, true) || !slices.Contains(liveMerged, false) || live.Len() < 4 {
				t.Fatalf("%s: fixture exercises too little: deleted=%v merges=%v tables=%d", label, deleted, liveMerged, live.Len())
			}

			var publishes countingObserver
			hooked := 0
			restored := New(Options{Shards: shards, LSH: lshp, PublishObserver: &publishes,
				OnMutate: func(Mutation) error {
					hooked++
					return nil
				}})
			var restoredMerged []bool
			stage := func(log []Mutation) func(*Restore) error {
				return func(r *Restore) error {
					for _, m := range log {
						switch m.Op {
						case MutationPut:
							if err := r.Put(m.Sketch); err != nil {
								return err
							}
						case MutationMerge:
							out, merged, err := r.Merge(m.Sketch)
							if err != nil {
								return err
							}
							if out.Name != m.Name {
								return fmt.Errorf("staged merge returned table %q for %q", out.Name, m.Name)
							}
							restoredMerged = append(restoredMerged, merged)
						case MutationDelete:
							if !r.Delete(m.Name) {
								return fmt.Errorf("logged delete of %q found nothing staged", m.Name)
							}
						}
					}
					return nil
				}
			}
			// Two restores, as boot runs them (snapshot, then log tail): the
			// second stages over what the first published.
			for _, part := range [][]Mutation{log[:len(log)/2], log[len(log)/2:]} {
				publishes.n = 0
				if err := restored.Restore(stage(part)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if publishes.n > restored.Shards() {
					t.Fatalf("%s: restore of %d records published %d times over %d shards", label, len(part), publishes.n, restored.Shards())
				}
			}
			if fmt.Sprint(restoredMerged) != fmt.Sprint(liveMerged) {
				t.Fatalf("%s: merge outcomes differ:\nrestored %v\n    live %v", label, restoredMerged, liveMerged)
			}
			requireSameCatalog(t, label, restored, live, query)

			// A failing restore: edits staged on two shards' worth of names,
			// then an error. Nothing may show, and nothing may stay locked.
			before := fmt.Sprint(restored.Tables())
			boom := errors.New("boom")
			err := restored.Restore(func(r *Restore) error {
				for _, op := range ops[:10] {
					if op.Sketch != nil {
						if err := r.Put(op.Sketch); err != nil {
							return err
						}
					}
					r.Delete(op.Name)
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s: failed restore returned %v", label, err)
			}
			if after := fmt.Sprint(restored.Tables()); after != before {
				t.Fatalf("%s: failed restore published:\nbefore %s\n after %s", label, before, after)
			}
			requireSameCatalog(t, label+" after failed restore", restored, live, query)
			if hooked != 0 {
				t.Fatalf("%s: restores ran the mutation hook %d times", label, hooked)
			}
			done := make(chan error, 1)
			go func() { _, err := restored.Delete(ops[0].Name); done <- err }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: delete after failed restore: %v", label, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: failed restore left a shard locked", label)
			}
		}
	}
}

// requireSameCatalog compares two catalogs table for table (marshaled
// bytes) and search for search (Float64bits), lsh mode included when both
// maintain candidate indexes.
func requireSameCatalog(t *testing.T, label string, got, want *Catalog, query *ipsketch.TableSketch) {
	t.Helper()
	if g, w := fmt.Sprint(got.Tables()), fmt.Sprint(want.Tables()); g != w {
		t.Fatalf("%s: tables differ:\n got %s\nwant %s", label, g, w)
	}
	for _, name := range want.Tables() {
		g, _ := got.Get(name)
		w, _ := want.Get(name)
		gb, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: table %s differs", label, name)
		}
	}
	_, lsh := want.LSH()
	for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsInnerProduct} {
		for _, k := range []int{-1, 4} {
			w, _, err := want.Search(ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: k})
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := got.Search(ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: k})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, g, w, fmt.Sprintf("%s: by=%d k=%d", label, by, k))
			if !lsh {
				continue
			}
			w, _, err = want.Search(ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: k, LSH: true, Probes: 4})
			if err != nil {
				t.Fatal(err)
			}
			g, _, err = got.Search(ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: k, LSH: true, Probes: 4})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, g, w, fmt.Sprintf("%s: lsh by=%d k=%d", label, by, k))
		}
	}
}
