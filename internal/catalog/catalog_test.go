package catalog

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
)

const fixtureKeySpace = 1 << 20

func fixtureSketcher(t testing.TB) *ipsketch.TableSketcher {
	t.Helper()
	ts, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 300, Seed: 11}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// fixtureSketches sketches n tables with overlapping keys and varied
// values (distinct scores) plus a query sketch.
func fixtureSketches(t testing.TB, n int) (*ipsketch.TableSketch, []*ipsketch.TableSketch) {
	t.Helper()
	ts := fixtureSketcher(t)
	rng := hashing.NewSplitMix64(99)
	const rows = 120
	qKeys := make([]uint64, rows)
	qVals := make([]float64, rows)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = rng.Norm()
	}
	qt, err := ipsketch.NewTable("query", qKeys, map[string][]float64{"v": qVals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}
	sks := make([]*ipsketch.TableSketch, n)
	for j := 0; j < n; j++ {
		keys := make([]uint64, rows/2)
		vals := make([]float64, rows/2)
		for i := range keys {
			keys[i] = uint64(i*(j%5+1) + j) // strictly increasing for fixed j
			vals[i] = 0.1*float64(j)*qVals[int(keys[i])%rows] + rng.Norm()
		}
		tab, err := ipsketch.NewTable(fmt.Sprintf("t%03d", j), keys, map[string][]float64{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		if sks[j], err = ts.SketchTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return qSk, sks
}

func resultsIdentical(a, b ipsketch.SearchResult) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Table == b.Table && a.Column == b.Column &&
		f64(a.Score, b.Score) &&
		f64(a.Stats.Size, b.Stats.Size) &&
		f64(a.Stats.SumA, b.Stats.SumA) && f64(a.Stats.SumB, b.Stats.SumB) &&
		f64(a.Stats.MeanA, b.Stats.MeanA) && f64(a.Stats.MeanB, b.Stats.MeanB) &&
		f64(a.Stats.VarA, b.Stats.VarA) && f64(a.Stats.VarB, b.Stats.VarB) &&
		f64(a.Stats.InnerProduct, b.Stats.InnerProduct) &&
		f64(a.Stats.Covariance, b.Stats.Covariance) &&
		f64(a.Stats.Correlation, b.Stats.Correlation)
}

func requireSameRanking(t *testing.T, got, want []ipsketch.SearchResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("%s: rank %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

func TestCatalogPutGetRemoveLen(t *testing.T) {
	_, sks := fixtureSketches(t, 10)
	for _, shards := range []int{1, 3, 8} {
		c := New(Options{Shards: shards})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != len(sks) {
			t.Fatalf("shards=%d: Len = %d", shards, c.Len())
		}
		if got := c.Tables(); len(got) != len(sks) || got[0] != "t000" || got[len(got)-1] != "t009" {
			t.Fatalf("shards=%d: Tables = %v", shards, got)
		}
		// Replacement keeps Len stable.
		if err := c.Put(sks[3]); err != nil {
			t.Fatal(err)
		}
		if c.Len() != len(sks) {
			t.Fatalf("shards=%d: Len after replace = %d", shards, c.Len())
		}
		if _, ok := c.Get("t003"); !ok {
			t.Fatal("t003 missing")
		}
		if _, ok := c.Get("nope"); ok {
			t.Fatal("phantom table")
		}
		if ok, err := c.Delete("nope"); err != nil || ok {
			t.Fatalf("deleting a missing table: removed=%v err=%v", ok, err)
		}
		if ok, err := c.Delete("t003"); err != nil || !ok {
			t.Fatalf("failed to delete t003: removed=%v err=%v", ok, err)
		}
		if _, ok := c.Get("t003"); ok {
			t.Fatal("t003 still resolvable")
		}
		if c.Len() != len(sks)-1 {
			t.Fatalf("shards=%d: Len after remove = %d", shards, c.Len())
		}
		total := 0
		for _, n := range c.ShardSizes() {
			total += n
		}
		if total != c.Len() {
			t.Fatalf("shard sizes %v sum to %d, Len is %d", c.ShardSizes(), total, c.Len())
		}
	}
	c := New(Options{})
	if err := c.Put(nil); err == nil {
		t.Fatal("nil sketch accepted")
	}
}

// TestCatalogSearchMatchesSingleIndex: for several shard counts, rank-by
// statistics, and k values, the sharded search must be bit-exact with the
// merged name-sorted single index.
func TestCatalogSearchMatchesSingleIndex(t *testing.T) {
	qSk, sks := fixtureSketches(t, 40)
	for _, shards := range []int{1, 4, 7, 32} {
		c := New(Options{Shards: shards})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		single := c.Snapshot()
		for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
			for _, k := range []int{-1, 0, 1, 3, 17, len(sks), len(sks) * 2} {
				want, _, err := single.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
				if err != nil {
					t.Fatal(err)
				}
				requireSameRanking(t, got, want, fmt.Sprintf("shards=%d by=%d k=%d", shards, by, k))
			}
		}
	}
}

// TestCatalogAllTiedAcrossShards: identical table contents under names
// that land on different shards must rank in global name order — the
// scan-order tiebreak survives the shard merge.
func TestCatalogAllTiedAcrossShards(t *testing.T) {
	ts := fixtureSketcher(t)
	keys := make([]uint64, 80)
	vals := make([]float64, 80)
	for i := range keys {
		keys[i] = uint64(i * 2)
		vals[i] = float64(i%5) + 1
	}
	qt, err := ipsketch.NewTable("query", keys, map[string][]float64{"v": vals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	c := New(Options{Shards: 4})
	names := make([]string, n)
	for j := 0; j < n; j++ {
		// Insert in reverse name order so insertion order ≠ name order.
		name := fmt.Sprintf("tied%02d", n-1-j)
		names[n-1-j] = name
		tab, err := ipsketch.NewTable(name, keys, map[string][]float64{"w": vals})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}

	full, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n {
		t.Fatalf("%d results, want %d", len(full), n)
	}
	for i, r := range full {
		if r.Table != names[i] {
			t.Fatalf("rank %d is %q, want name-order %q", i, r.Table, names[i])
		}
		if r.Score != full[0].Score {
			t.Fatalf("scores not tied at rank %d", i)
		}
	}
	// Every k is the exact name-order prefix, and bit-exact with the
	// single-index ranking.
	single := c.Snapshot()
	for _, k := range []int{1, 2, 5, n / 2, n, n + 9} {
		got, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: k})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := single.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: k})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, got, want, fmt.Sprintf("tied k=%d", k))
	}
}

// TestCatalogStrictPinsConfig: every catalog pins the configuration of its
// first table and refuses a mismatched Put, even after it is emptied.
func TestCatalogStrictPinsConfig(t *testing.T) {
	mk := func(cfg ipsketch.Config, keySpace uint64, name string) *ipsketch.TableSketch {
		t.Helper()
		ts, err := ipsketch.NewTableSketcher(cfg, keySpace)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ipsketch.NewTable(name, []uint64{1, 2, 3}, map[string][]float64{"v": {1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	base := ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 100, Seed: 1}
	c := New(Options{Shards: 4})
	if err := c.Put(mk(base, 1<<16, "a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(mk(base, 1<<16, "b")); err != nil {
		t.Fatal(err)
	}
	bad := ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 100, Seed: 2}
	if err := c.Put(mk(bad, 1<<16, "c")); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if err := c.Put(mk(base, 1<<17, "c")); err == nil {
		t.Fatal("key-space mismatch accepted")
	}
	// Pin survives emptying the catalog.
	for _, name := range []string{"a", "b"} {
		if ok, err := c.Delete(name); err != nil || !ok {
			t.Fatalf("deleting %s: removed=%v err=%v", name, ok, err)
		}
	}
	if err := c.Put(mk(bad, 1<<16, "c")); err == nil {
		t.Fatal("pin forgotten after catalog emptied")
	}
}

// TestCatalogConcurrentIngestAndSearch: heavy concurrent Put/Remove/Get/
// Search with no lost updates; run under -race in CI.
func TestCatalogConcurrentIngestAndSearch(t *testing.T) {
	qSk, sks := fixtureSketches(t, 60)
	c := New(Options{Shards: 8})
	// Pre-load half so searches have something to chew on from the start.
	for _, sk := range sks[:30] {
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Writers: each owns a disjoint slice of tables, puts them all,
	// removes a few, re-puts them.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 10; i < (w+1)*10; i++ {
				if err := c.Put(sks[i]); err != nil {
					errCh <- err
					return
				}
			}
			for i := w * 10; i < w*10+5; i++ {
				if ok, err := c.Delete(sks[i].Name); err != nil || !ok {
					errCh <- fmt.Errorf("writer %d: lost table %s (err %v)", w, sks[i].Name, err)
					return
				}
			}
			for i := w * 10; i < w*10+5; i++ {
				if err := c.Put(sks[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Readers: search and point-lookup while writers churn.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 5}); err != nil {
					errCh <- err
					return
				}
				c.Get(sks[i%len(sks)].Name)
				c.Len()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// No lost updates: every table is present afterwards.
	if c.Len() != len(sks) {
		t.Fatalf("Len = %d after concurrent churn, want %d", c.Len(), len(sks))
	}
	for _, sk := range sks {
		got, ok := c.Get(sk.Name)
		if !ok {
			t.Fatalf("table %s lost", sk.Name)
		}
		// Get returns a view over its run's pack, never the put bundle
		// itself: it must hold the same sketch bytes.
		gb, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("table %s holds different sketch bytes", sk.Name)
		}
	}
	// And the final state searches exactly like its merged index.
	want, _, err := c.Snapshot().Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, want, "post-churn")
}

// TestSaveEncodesBareIndex: Save captures a name-sorted index without
// packing the columnar or LSH views; the file must equal, byte for byte,
// the one written from the packed Snapshot() of the same catalog state.
func TestSaveEncodesBareIndex(t *testing.T) {
	_, sks := fixtureSketches(t, 15)
	for name, opts := range map[string]Options{
		"plain": {Shards: 4},
		"lsh":   {Shards: 4, LSH: &strongLSH},
	} {
		t.Run(name, func(t *testing.T) {
			c := New(opts)
			for _, sk := range sks {
				if err := c.Put(sk); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			bare, packed := filepath.Join(dir, "bare.ipsx"), filepath.Join(dir, "packed.ipsx")
			if err := c.Save(bare); err != nil {
				t.Fatal(err)
			}
			snap := c.Snapshot()
			if snap.HasLSH() != (opts.LSH != nil) {
				t.Fatalf("Snapshot() carries an LSH view: %v, want %v", snap.HasLSH(), opts.LSH != nil)
			}
			if err := SaveIndex(snap, packed); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(bare)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(packed)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("Save wrote %d bytes, SaveIndex(Snapshot()) wrote %d; files differ", len(got), len(want))
			}
		})
	}
}

func TestCatalogSaveLoadRoundTrip(t *testing.T) {
	qSk, sks := fixtureSketches(t, 15)
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
	// Restore into a catalog with a different shard count: rankings must
	// still be bit-exact (the canonical order is name-based, not
	// shard-based).
	c2 := New(Options{Shards: 9})
	n, err := c2.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sks) || c2.Len() != len(sks) {
		t.Fatalf("loaded %d tables, Len %d, want %d", n, c2.Len(), len(sks))
	}
	want, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsCorrelation, MinJoinSize: 1, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c2.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsCorrelation, MinJoinSize: 1, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, want, "save/load")

	// Save is atomic: the temp file never survives.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir has leftovers: %v", names)
	}
	if _, err := c2.Load(filepath.Join(t.TempDir(), "missing.ipsx")); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}

// TestCatalogRejectsUnserializableNames: a Put the snapshot envelope
// could not round-trip is refused up front.
func TestCatalogRejectsUnserializableNames(t *testing.T) {
	ts := fixtureSketcher(t)
	long := make([]byte, ipsketch.MaxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	tab, err := ipsketch.NewTable(string(long), []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{})
	if err := c.Put(sk); err == nil {
		t.Fatal("unserializable table name accepted")
	}
}

// TestCatalogPin: a pre-pinned catalog validates even the very first Put.
func TestCatalogPin(t *testing.T) {
	mk := func(seed uint64, name string) *ipsketch.TableSketch {
		t.Helper()
		ts, err := ipsketch.NewTableSketcher(
			ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 100, Seed: seed}, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ipsketch.NewTable(name, []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	c := New(Options{})
	if err := c.Pin(mk(1, "ref")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(mk(2, "first")); err == nil {
		t.Fatal("first Put with mismatched seed accepted despite pin")
	}
	if err := c.Put(mk(1, "first")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ref"); ok {
		t.Fatal("pin reference appeared as a cataloged table")
	}
	if err := c.Pin(mk(2, "ref")); err == nil {
		t.Fatal("incompatible re-pin accepted")
	}
}

// mergeFixture builds one table partitioned into disjoint row slices plus
// the full-table sketch, under a coordinate-keyed method (MH) whose
// partition sketches merge exactly.
func mergeFixture(t testing.TB, parts int) (ts *ipsketch.TableSketcher, partials []*ipsketch.TableSketch, full *ipsketch.TableSketch) {
	t.Helper()
	ts, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 11}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 90
	keys := make([]uint64, rows)
	vals := make([]float64, rows)
	for i := range keys {
		keys[i] = uint64(i*3 + 1)
		vals[i] = float64(i%7 + 1)
	}
	tab, err := ipsketch.NewTable("t", keys, map[string][]float64{"v": vals})
	if err != nil {
		t.Fatal(err)
	}
	if full, err = ts.SketchTable(tab); err != nil {
		t.Fatal(err)
	}
	chunk := (rows + parts - 1) / parts
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		pt, err := ipsketch.NewTable("t", keys[lo:hi], map[string][]float64{"v": vals[lo:hi]})
		if err != nil {
			t.Fatal(err)
		}
		partial, err := ts.SketchTable(pt)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, partial)
	}
	return ts, partials, full
}

// TestCatalogMergeMatchesSingleIngest: folding row-partition partials via
// Merge yields a cataloged sketch byte-identical to putting the
// full-table sketch directly.
func TestCatalogMergeMatchesSingleIngest(t *testing.T) {
	_, partials, full := mergeFixture(t, 3)
	c := New(Options{Shards: 4})
	for i, p := range partials {
		merged, err := c.Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		if merged != (i > 0) {
			t.Fatalf("partial %d: merged = %v", i, merged)
		}
	}
	got, ok := c.Get("t")
	if !ok {
		t.Fatal("merged table missing")
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("catalog merge differs from single ingest")
	}
}

// TestCatalogConcurrentMergeNoLostUpdates: concurrent partial pushes for
// one table must all land — the read-merge-publish sequence serializes
// under the shard write mutex — and the result must equal the
// single-ingest sketch regardless of arrival order.
func TestCatalogConcurrentMergeNoLostUpdates(t *testing.T) {
	_, partials, full := mergeFixture(t, 8)
	c := New(Options{Shards: 4})
	var wg sync.WaitGroup
	errs := make([]error, len(partials))
	for i, p := range partials {
		wg.Add(1)
		go func(i int, p *ipsketch.TableSketch) {
			defer wg.Done()
			_, errs[i] = c.Merge(p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("partial %d: %v", i, err)
		}
	}
	got, ok := c.Get("t")
	if !ok {
		t.Fatal("merged table missing")
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("concurrent merges lost an update or reordered non-commutatively")
	}
}

// TestCatalogMergeRespectsPin: a pinned catalog rejects partials from an
// incompatible configuration at merge time, same as Put.
func TestCatalogMergeRespectsPin(t *testing.T) {
	_, partials, full := mergeFixture(t, 2)
	c := New(Options{Shards: 2})
	if err := c.Pin(full); err != nil {
		t.Fatal(err)
	}
	other, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 99}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("t", []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := other.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Merge(bad); err == nil {
		t.Fatal("pinned catalog accepted an incompatible partial")
	}
	if _, err := c.Merge(partials[0]); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogSearchAllocsFlatInShards pins the per-search scratch: every
// per-worker and per-shard buffer of a search comes from the library's
// pooled searcher, so what a search allocates — its result, the snapshot
// slice, the decoded query — does not grow with the shard count.
func TestCatalogSearchAllocsFlatInShards(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	qSk, sks := fixtureSketches(t, 64)
	allocs := func(shards int) float64 {
		c := New(Options{Shards: shards})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		search := func() {
			res, stats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
			if err != nil || len(res) != 10 || stats.Fallback != 0 {
				t.Fatalf("shards=%d: %d results, stats %+v, err %v", shards, len(res), stats, err)
			}
		}
		search() // size the pooled scratch for this shard count
		return testing.AllocsPerRun(100, search)
	}
	one, sixteen := allocs(1), allocs(16)
	t.Logf("allocs per search: 1 shard %.0f, 16 shards %.0f", one, sixteen)
	if sixteen > one {
		t.Fatalf("allocations per search grow with the shard count: %.0f at 1 shard, %.0f at 16", one, sixteen)
	}
	if one > 8 {
		t.Fatalf("%.0f allocations per search, want a handful (result, snapshot slice, decoded query)", one)
	}
}

// TestCatalogPublishAllocsFlatInShardSize pins the cost of a publish to
// its edit: a warm Put into a shard of 256 tables allocates exactly as
// often as one into a shard of 64, with and without banding, because the
// next index is spliced from the published one and only the run that
// holds the table is re-packed. The Puts cycle through tables whose runs
// are cut alike at both sizes (the cut is a function of the names, and
// the first 48 names are far from the end of either shard).
func TestCatalogPublishAllocsFlatInShardSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	_, sks := fixtureSketches(t, 256)
	for _, lsh := range []*ipsketch.LSHParams{nil, &strongLSH} {
		banded := lsh != nil
		allocs := func(n int) float64 {
			c := New(Options{Shards: 1, LSH: lsh})
			if err := c.Restore(func(r *Restore) error {
				for _, sk := range sks[:n] {
					if _, _, err := r.Apply(mutation(MutationPut, sk)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			i := 0
			return testing.AllocsPerRun(96, func() {
				if err := c.Put(sks[i%48]); err != nil {
					t.Fatal(err)
				}
				i++
			})
		}
		small, large := allocs(64), allocs(256)
		t.Logf("banded=%v: allocs per Put: 64 tables %.1f, 256 tables %.1f", banded, small, large)
		if small != large {
			t.Fatalf("banded=%v: allocations per Put grow with the shard: %.1f at 64 tables, %.1f at 256", banded, small, large)
		}
	}
}

// tieSketches sketches a corpus built to tie: groups of tables share one
// key set each, so all their columns have bit-equal join-size estimates
// and the k boundary under RankByJoinSize cuts through tables, tie groups
// and shards. One group is disjoint from the query (size ≤ 0, NaN ratio
// statistics), tables carry 1–3 columns, and one table is named like the
// query (self-excluded wherever it lands).
func tieSketches(t testing.TB) (*ipsketch.TableSketch, []*ipsketch.TableSketch) {
	t.Helper()
	ts := fixtureSketcher(t)
	rng := hashing.NewSplitMix64(7)
	const rows = 160
	sketch := func(name string, keys []uint64, cols map[string][]float64) *ipsketch.TableSketch {
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
	qKeys := make([]uint64, rows)
	qVals := make([]float64, rows)
	for i := range qKeys {
		qKeys[i], qVals[i] = uint64(i), rng.Norm()
	}
	qSk := sketch("query", qKeys, map[string][]float64{"v": qVals})
	groups := [][]uint64{make([]uint64, 100), make([]uint64, 80), make([]uint64, 50), make([]uint64, 60)}
	for g, stride := range []uint64{1, 2, 3} { // 100, 80 and 50 of the query's keys
		for j := range groups[g] {
			groups[g][j] = stride * uint64(j)
		}
	}
	for j := range groups[3] {
		groups[3][j] = 70000 + uint64(j) // none of them
	}
	var sks []*ipsketch.TableSketch
	for i := 0; i < 36; i++ {
		keys := groups[i%len(groups)]
		cols := map[string][]float64{}
		for c := 0; c <= i%3; c++ {
			vals := make([]float64, len(keys))
			for j := range vals {
				vals[j] = rng.Norm()
				if c == 0 && keys[j] < rows {
					vals[j] += 0.1 * float64(i) * qVals[keys[j]]
				}
			}
			cols[fmt.Sprintf("c%d", c)] = vals
		}
		name := fmt.Sprintf("%c%02d", 'a'+(i*11)%26, i)
		if i == 13 {
			name = "query"
		}
		sks = append(sks, sketch(name, keys, cols))
	}
	return qSk, sks
}

// requireSameCounters compares the scan counters two equivalent searches
// must agree on.
func requireSameCounters(t *testing.T, label string, got, want ipsketch.ScanStats) {
	t.Helper()
	if got.Candidates != want.Candidates || got.Pruned != want.Pruned {
		t.Fatalf("%s: counters diverge: got %+v want %+v", label, got, want)
	}
}

// TestCatalogTieHeavyMatchesDecodedReference: on the tie corpus, the
// sharded rank-then-fill search (fill after the cross-shard merge) must
// equal the packed single-index snapshot AND the decoded all-six
// reference bit for bit — every Stats field and the scan counters — for
// every RankBy, k shape, minJoinSize around the tie value and shard
// count, on the full scan and in lsh mode.
func TestCatalogTieHeavyMatchesDecodedReference(t *testing.T) {
	qSk, sks := tieSketches(t)
	// The decoded reference: a name-sorted index that never packs.
	ref := ipsketch.NewSketchIndex()
	byName := map[string]*ipsketch.TableSketch{}
	for _, sk := range sks {
		byName[sk.Name] = sk
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := ref.Add(byName[name]); err != nil {
			t.Fatal(err)
		}
	}
	// The lsh reference: the same, over the band oracle's candidates.
	lref := decodedSubset(t, ref, bandOracle(t, ref, qSk, strongLSH, 0))
	all, _, err := ref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	top, sizes := 0.0, map[uint64]bool{}
	for _, r := range all {
		top = max(top, r.Stats.Size)
		sizes[math.Float64bits(r.Stats.Size)] = true
	}
	if len(sizes) > 4 || len(all) < 60 {
		t.Fatalf("tie corpus does not tie: %d candidates over %d distinct sizes", len(all), len(sizes))
	}
	n := len(all)
	for _, shards := range []int{1, 4, 16} {
		c := New(Options{Shards: shards, LSH: &strongLSH})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.Snapshot()
		for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
			for _, minJoin := range []float64{0, top, math.Nextafter(top, math.Inf(1))} {
				for _, k := range []int{1, 7, n, n + 5, -1} {
					label := fmt.Sprintf("shards=%d by=%d minJoin=%v k=%d", shards, by, minJoin, k)
					want, wStats, err := ref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
					if err != nil {
						t.Fatal(err)
					}
					if wStats.Columnar != 0 {
						t.Fatalf("%s: reference scored packed: %+v", label, wStats)
					}
					got, gStats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRanking(t, got, want, "catalog vs decoded "+label)
					requireSameCounters(t, "catalog vs decoded "+label, gStats, wStats)
					if gStats.Fallback != 0 || gStats.Columnar != gStats.Candidates {
						t.Fatalf("%s: catalog scan not fully columnar: %+v", label, gStats)
					}
					sGot, sStats, err := snap.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRanking(t, sGot, want, "snapshot vs decoded "+label)
					requireSameCounters(t, "snapshot vs decoded "+label, sStats, wStats)

					// lsh mode: the band oracle's candidates (all bands probed)
					// rescored by the same routine, sharded or not, as the
					// decoded full scan of exactly those tables ranks them.
					lWant, lwStats, err := lref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
					if err != nil {
						t.Fatal(err)
					}
					lGot, lgStats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k, LSH: true})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRanking(t, lGot, lWant, "catalog lsh vs decoded candidates "+label)
					requireSameCounters(t, "catalog lsh vs decoded candidates "+label, lgStats, lwStats)
					if lgStats.LSHCandidates != int64(lref.Len()) || lgStats.Fallback != 0 {
						t.Fatalf("%s: lsh counters diverge: catalog %+v decoded %+v", label, lgStats, lwStats)
					}
				}
			}
		}
	}
}

// TestCatalogFailedPublishRunsNoHook: a mutation whose shard index fails
// to build — invalid banding parameters, or a method without LSH
// signatures under LSH — returns the error without running the OnMutate
// hook, so a write-ahead log never records a mutation that a replay could
// not publish.
func TestCatalogFailedPublishRunsNoHook(t *testing.T) {
	_, sks := fixtureSketches(t, 1)
	jlTS, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodJL, StorageWords: 100, Seed: 1}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("jl", []uint64{1, 2, 3}, map[string][]float64{"v": {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	jl, err := jlTS.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lsh  ipsketch.LSHParams
		sk   *ipsketch.TableSketch
	}{
		{"invalid banding", ipsketch.LSHParams{Bands: 0, Rows: 4}, sks[0]},
		{"unbandable method", ipsketch.LSHParams{Bands: 4, Rows: 2}, jl},
	} {
		hooked := 0
		c := New(Options{Shards: 2, LSH: &tc.lsh, OnMutate: func(Mutation) error { hooked++; return nil }})
		if err := c.Put(tc.sk); err == nil {
			t.Fatalf("%s: Put published", tc.name)
		}
		if _, err := c.Merge(tc.sk); err == nil {
			t.Fatalf("%s: Merge published", tc.name)
		}
		if hooked != 0 || c.Len() != 0 {
			t.Fatalf("%s: hook ran %d times, catalog holds %d tables; want 0 and 0", tc.name, hooked, c.Len())
		}
	}
}

// TestCatalogApplyReturnsTheTableItLeaves: Apply, live or staged, returns
// the table as the mutation left it — for a merge the bytes of
// TableSketch.Merge(previous, partial), or the partial itself when the name
// was absent — with whether the name was there before. A delete of an
// absent name publishes and logs nothing.
func TestCatalogApplyReturnsTheTableItLeaves(t *testing.T) {
	_, partials, _ := mergeFixture(t, 2)
	marshal := func(ts *ipsketch.TableSketch) string {
		t.Helper()
		b, err := ts.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	both, err := partials[0].Merge(partials[1])
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		mut     Mutation
		want    string // marshaled table Apply returns ("" for none)
		existed bool
	}{
		{Mutation{Op: MutationMerge, Name: "t", Sketch: partials[0], Tag: "k0"}, marshal(partials[0]), false},
		{Mutation{Op: MutationMerge, Name: "t", Sketch: partials[1], Tag: "k1"}, marshal(both), true},
		{Mutation{Op: MutationPut, Name: "t", Sketch: partials[1]}, marshal(partials[1]), true},
		{Mutation{Op: MutationDelete, Name: "t"}, "", true},
		{Mutation{Op: MutationDelete, Name: "t"}, "", false},
	}
	check := func(label string, i int, out *ipsketch.TableSketch, existed bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s step %d: %v", label, i, err)
		}
		got := ""
		if out != nil {
			got = marshal(out)
		}
		if got != steps[i].want || existed != steps[i].existed {
			t.Fatalf("%s step %d: returned %d bytes (existed %v), want %d bytes (existed %v)",
				label, i, len(got), existed, len(steps[i].want), steps[i].existed)
		}
	}

	var hooked []Mutation
	var publishes countingObserver
	live := New(Options{Shards: 2, PublishObserver: &publishes, OnMutate: func(m Mutation) error {
		hooked = append(hooked, m)
		return nil
	}})
	for i, step := range steps {
		out, existed, err := live.Apply(step.mut)
		check("live", i, out, existed, err)
	}
	if len(hooked) != 4 || publishes.n != 4 {
		t.Fatalf("live: %d hooked and %d published, want 4 and 4 (the absent delete neither)", len(hooked), publishes.n)
	}
	for i, m := range hooked {
		if m != steps[i].mut {
			t.Fatalf("live: hook %d saw %+v, want the applied mutation", i, m)
		}
	}

	staged := New(Options{Shards: 2})
	err = staged.Restore(func(r *Restore) error {
		for i, step := range steps {
			out, existed, err := r.Apply(step.mut)
			check("restore", i, out, existed, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCatalogApplyRefusesMisnamedSketch: a put or merge whose Name is not
// its sketch's table name is refused, live and staged alike, with an error
// naming both, before the hook runs and without publishing.
func TestCatalogApplyRefusesMisnamedSketch(t *testing.T) {
	_, sks := fixtureSketches(t, 1)
	hooked := 0
	c := New(Options{Shards: 2, OnMutate: func(Mutation) error { hooked++; return nil }})
	for _, op := range []MutationOp{MutationPut, MutationMerge} {
		mut := Mutation{Op: op, Name: "a", Sketch: sks[0]}
		requireNamesBoth := func(label string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), `"t000"`) {
				t.Fatalf("%s op %d: err = %v, want one naming %q and %q", label, op, err, "a", "t000")
			}
		}
		_, _, err := c.Apply(mut)
		requireNamesBoth("live", err)
		err = c.Restore(func(r *Restore) error {
			_, _, err := r.Apply(mut)
			return err
		})
		requireNamesBoth("restore", err)
	}
	if hooked != 0 || c.Len() != 0 {
		t.Fatalf("hook ran %d times, catalog holds %d tables; want 0 and 0", hooked, c.Len())
	}
}
