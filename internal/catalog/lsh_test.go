package catalog

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
)

// strongLSH bands aggressively (threshold ≈ 0.016 at Bands=64, Rows=1)
// so every overlapping fixture table is retrieved and recall is 1.
var strongLSH = ipsketch.LSHParams{Bands: 64, Rows: 1}

// bandOracle returns the names of ix's tables whose key sketch shares one
// of the first probes bands (≤ 0: all) of p with the query's, row for
// row, comparing signatures with no hashing: the tables an lsh-mode search
// must gather. Tables with empty key sketches match nothing.
func bandOracle(t testing.TB, ix *ipsketch.SketchIndex, q *ipsketch.TableSketch, p ipsketch.LSHParams, probes int) []string {
	t.Helper()
	qsig, err := q.KeySketch().LSHSignature()
	if err != nil {
		t.Fatal(err)
	}
	if probes <= 0 || probes > p.Bands {
		probes = p.Bands
	}
	var out []string
	for _, name := range ix.Tables() {
		e, _ := ix.Get(name)
		sig, err := e.KeySketch().LSHSignature()
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < probes && sig != nil && qsig != nil; b++ {
			if slices.Equal(sig[b*p.Rows:(b+1)*p.Rows], qsig[b*p.Rows:(b+1)*p.Rows]) {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// decodedSubset returns a fresh index of the named tables of ix that packs
// nothing, so its searches take the decoded scorer.
func decodedSubset(t testing.TB, ix *ipsketch.SketchIndex, names []string) *ipsketch.SketchIndex {
	t.Helper()
	sub := ipsketch.NewSketchIndex()
	for _, name := range names {
		e, _ := ix.Get(name)
		if err := sub.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

// TestCatalogLSHSearchBitExact: with LSH enabled, the banded search over
// the sharded catalog is bit-identical to the full sharded scan whenever
// recall is 1 — across publishes, which rebuild each shard's candidate
// index copy-on-write.
func TestCatalogLSHSearchBitExact(t *testing.T) {
	qSk, sks := fixtureSketches(t, 40)
	c := New(Options{Shards: 4, LSH: &strongLSH})
	if p, ok := c.LSH(); !ok || p != strongLSH {
		t.Fatalf("LSH() = %+v, %v", p, ok)
	}
	for _, sk := range sks {
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{1, 5, 10, -1} {
		full, fStats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if fStats.LSHCandidates != 0 || fStats.LSHProbes != 0 {
			t.Fatalf("full scan reports LSH counters: %+v", fStats)
		}
		got, stats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: k, LSH: true})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, got, full, "lsh vs full")
		if stats.LSHCandidates == 0 {
			t.Fatal("no band candidates on an overlapping corpus")
		}
		// Every shard probes all bands; counters sum across shards.
		if stats.LSHProbes != int64(strongLSH.Bands*c.Shards()) {
			t.Fatalf("LSHProbes = %d, want %d", stats.LSHProbes, strongLSH.Bands*c.Shards())
		}
	}
	// Mutations republish the candidate index; search stays exact.
	if ok, err := c.Delete(sks[0].Name); err != nil || !ok {
		t.Fatalf("delete failed: removed=%v err=%v", ok, err)
	}
	full, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: 10, LSH: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, full, "after remove")
	// The single-index snapshot inherits the banded view.
	snap := c.Snapshot()
	if !snap.HasLSH() {
		t.Fatal("snapshot lost the LSH view")
	}
	sres, _, err := snap.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByAbsInnerProduct, K: 10, LSH: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, sres, full, "snapshot lsh")
}

// TestCatalogLSHDisabled: a catalog built without Options.LSH fails
// lsh-mode searches with the typed error instead of scanning silently.
func TestCatalogLSHDisabled(t *testing.T) {
	qSk, sks := fixtureSketches(t, 4)
	c := New(Options{Shards: 2})
	if _, ok := c.LSH(); ok {
		t.Fatal("LSH() reports enabled on a plain catalog")
	}
	for _, sk := range sks {
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 5, LSH: true}); !errors.Is(err, ipsketch.ErrNoLSHIndex) {
		t.Fatalf("err = %v, want ErrNoLSHIndex", err)
	}
}

// TestCatalogLSHInvalidParams: unusable banding parameters fail the first
// publish with a clear error instead of poisoning reads.
func TestCatalogLSHInvalidParams(t *testing.T) {
	_, sks := fixtureSketches(t, 1)
	bad := ipsketch.LSHParams{Bands: 0, Rows: 4}
	c := New(Options{LSH: &bad})
	if err := c.Put(sks[0]); err == nil {
		t.Fatal("publish with invalid LSH params succeeded")
	}
}

// TestForwardersMatchSearch: the four positional forwarders the benchmark
// harness still calls — full scan and lsh mode, on the catalog and on its
// snapshot index — return Float64bits-identical rankings and equal scan
// counters to Search(Query), so the benchmark times the code Search runs.
func TestForwardersMatchSearch(t *testing.T) {
	qSk, sks := fixtureSketches(t, 48)
	counters := func(s ipsketch.ScanStats) [6]int64 {
		return [6]int64{s.Candidates, s.Pruned, s.Columnar, s.Fallback, s.LSHProbes, s.LSHCandidates}
	}
	var label string
	// same(Search's answer)(the forwarder's answer) fails unless they agree.
	same := func(want []ipsketch.SearchResult, ws ipsketch.ScanStats, err error) func([]ipsketch.SearchResult, ipsketch.ScanStats, error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return func(got []ipsketch.SearchResult, gs ipsketch.ScanStats, err error) {
			if err != nil {
				t.Fatalf("%s: forwarder: %v", label, err)
			}
			requireSameRanking(t, got, want, label)
			if counters(gs) != counters(ws) {
				t.Fatalf("%s: forwarder counters %+v, want %+v", label, gs, ws)
			}
		}
	}
	// minJoin prunes part of the fixture on the full scan and on a probe of
	// every band, so a forwarder that drops it fails. (A probe of 4 bands
	// may find only tables that clear it.)
	const minJoin = 30
	lsh := ipsketch.LSHParams{Bands: 16, Rows: 2}
	for _, shards := range []int{1, 16} {
		c := New(Options{Shards: shards, LSH: &lsh})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.Snapshot()
		for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
			for _, k := range []int{3, -1} {
				// probes < 0 is the full scan.
				for _, probes := range []int{-1, 0, 4} {
					q := ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k, LSH: probes >= 0, Probes: probes}
					label = fmt.Sprintf("shards=%d by=%d k=%d probes=%d", shards, by, k, probes)
					if _, st, _ := c.Search(q); probes <= 0 && st.Pruned == 0 {
						t.Fatalf("%s: nothing pruned", label)
					}
					if q.LSH {
						same(c.Search(q))(c.SearchTopKLSHStats(qSk, "v", by, minJoin, k, probes))
						same(snap.Search(q))(snap.SearchTopKLSHStats(qSk, "v", by, minJoin, k, probes))
					} else {
						same(c.Search(q))(c.SearchTopKStats(qSk, "v", by, minJoin, k))
						same(snap.Search(q))(snap.SearchTopKStats(qSk, "v", by, minJoin, k))
					}
				}
			}
		}
	}
}

// TestCatalogLSHAliasMatchesBandOracle: seeded Put/Merge/Delete sequences,
// new names among them, through MH and WMH catalogs banded 8×2 at 1 and
// 16 shards. After every step an lsh-mode search at probes 1, 4 and all
// gathers exactly the band oracle's tables (signature rows compared with
// no hashing), every published run carries bands, and every run the step
// did not re-pack carries the very band arrays it carried before — the
// bands counterpart of TestCatalogAliasReusesUntouchedRuns: a write bands
// only the runs it re-packs.
func TestCatalogLSHAliasMatchesBandOracle(t *testing.T) {
	lp := ipsketch.LSHParams{Bands: 8, Rows: 2}
	for _, method := range []ipsketch.Method{ipsketch.MethodWMH, ipsketch.MethodMH} {
		for _, shards := range []int{1, 16} {
			t.Run(fmt.Sprintf("%v/shards=%d", method, shards), func(t *testing.T) {
				pool := aliasFixture(t, method, 52)
				queries := pool[48:]
				for i, q := range queries {
					q.Name = fmt.Sprintf("query%d", i)
				}
				pool = pool[:48]
				c := New(Options{Shards: shards, LSH: &lp})
				for _, sk := range pool[:24] {
					if err := c.Put(sk); err != nil {
						t.Fatal(err)
					}
				}
				rng := hashing.NewSplitMix64(uint64(method)*100 + uint64(shards))
				var gathered [3]int // by probe budget, over every step and query
				for step := range 40 {
					sk := pool[rng.Intn(len(pool))]
					mut := Mutation{Op: MutationPut, Name: sk.Name, Sketch: sk}
					switch _, present := c.Get(sk.Name); rng.Intn(3) {
					case 0:
						if present {
							mut = Mutation{Op: MutationDelete, Name: sk.Name}
						}
					case 1:
						mut.Op = MutationMerge
					}
					label := fmt.Sprintf("step %d (op %d %s)", step, mut.Op, mut.Name)
					before := make([][]packRun, shards)
					for i := range before {
						before[i] = packRuns(t, c.shards[i].ix.Load())
					}
					if _, _, err := c.Apply(mut); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i := range before {
						requireBandsKept(t, fmt.Sprintf("%s shard %d", label, i), before[i], packRuns(t, c.shards[i].ix.Load()))
					}
					ix := c.Capture()
					for i, probes := range []int{1, 4, 0} {
						for _, q := range queries {
							gathered[i] += requireOracleCandidates(t, fmt.Sprintf("%s %s probes=%d", label, q.Name, probes), c, ix, q, lp, probes)
						}
					}
				}
				// The banding separates: one band gathers some tables, more
				// bands gather more, and all of them not every table.
				if all := 40 * len(queries) * c.Len(); !(0 < gathered[0] && gathered[0] < gathered[1] && gathered[1] < gathered[2] && gathered[2] < all) {
					t.Fatalf("gathered %v tables by probe budget: the fixture does not exercise the bands", gathered)
				}
			})
		}
	}
}

// requireBandsKept checks a publish's runs against the runs before it:
// every run carries bands, and a run of before carries the same bands,
// key and id arrays as it did.
func requireBandsKept(t *testing.T, label string, before, after []packRun) {
	t.Helper()
	was := map[uintptr][]uintptr{}
	for _, r := range before {
		was[r.id] = r.bands
	}
	for i, r := range after {
		if len(r.bands) == 0 {
			t.Fatalf("%s: run %d %v has no bands", label, i, r.names)
		}
		if old, ok := was[r.id]; ok && !slices.Equal(old, r.bands) {
			t.Fatalf("%s: run %d %v was not re-packed but carries other bands", label, i, r.names)
		}
	}
}

// requireOracleCandidates checks that an lsh-mode search of c under
// banding p and the probe budget gathers exactly bandOracle's tables of
// ix, c's tables: those of its unbounded, unfiltered ranking and its
// LSHCandidates count. It returns the number of tables gathered.
func requireOracleCandidates(t *testing.T, label string, c *Catalog, ix *ipsketch.SketchIndex, q *ipsketch.TableSketch, p ipsketch.LSHParams, probes int) int {
	t.Helper()
	want := bandOracle(t, ix, q, p, probes)
	res, stats, err := c.Search(ipsketch.Query{Sketch: q, Column: "v", RankBy: ipsketch.RankByJoinSize, MinJoinSize: math.Inf(-1), K: -1, LSH: true, Probes: probes})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var got []string
	for _, r := range res {
		got = append(got, r.Table)
	}
	slices.Sort(got)
	got = slices.Compact(got)
	if !slices.Equal(got, want) || stats.LSHCandidates != int64(len(want)) {
		t.Fatalf("%s: gathered %v (%d), the band oracle %v", label, got, stats.LSHCandidates, want)
	}
	return len(want)
}
