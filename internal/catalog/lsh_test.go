package catalog

import (
	"errors"
	"fmt"
	"testing"

	ipsketch "repro"
)

// strongLSH bands aggressively (threshold ≈ 0.016 at Bands=64, Rows=1)
// so every overlapping fixture table is retrieved and recall is 1.
var strongLSH = ipsketch.LSHParams{Bands: 64, Rows: 1}

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
