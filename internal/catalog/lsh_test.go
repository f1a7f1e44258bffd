package catalog

import (
	"errors"
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
		full, fStats, err := c.SearchTopKStats(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		if fStats.LSHCandidates != 0 || fStats.LSHProbes != 0 {
			t.Fatalf("full scan reports LSH counters: %+v", fStats)
		}
		got, stats, err := c.SearchTopKLSHStats(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, k, 0)
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
	full, err := c.SearchTopK(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.SearchTopKLSHStats(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, got, full, "after remove")
	// The single-index snapshot inherits the banded view.
	snap := c.Snapshot()
	if !snap.HasLSH() {
		t.Fatal("snapshot lost the LSH view")
	}
	sres, _, err := snap.SearchTopKLSHStats(qSk, "v", ipsketch.RankByAbsInnerProduct, 0, 10, 0)
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
	if _, _, err := c.SearchTopKLSHStats(qSk, "v", ipsketch.RankByJoinSize, 0, 5, 0); !errors.Is(err, ipsketch.ErrNoLSHIndex) {
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
