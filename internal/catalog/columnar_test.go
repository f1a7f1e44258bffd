package catalog

import (
	"fmt"
	"sync"
	"testing"

	ipsketch "repro"
)

// TestCatalogColumnarPublish: every published shard index carries a built
// columnar view, so catalog searches score through the packed kernel with
// zero decoded fallbacks — and rank identically to the snapshot index.
func TestCatalogColumnarPublish(t *testing.T) {
	qSk, sks := fixtureSketches(t, 40)
	for _, shards := range []int{1, 4, 8} {
		c := New(Options{Shards: shards})
		for _, sk := range sks {
			if err := c.Put(sk); err != nil {
				t.Fatal(err)
			}
		}
		got, stats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates == 0 || stats.Fallback != 0 || stats.Columnar != stats.Candidates {
			t.Fatalf("shards=%d: published scan not fully columnar: %+v", shards, stats)
		}
		want, _, err := c.Snapshot().Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, got, want, fmt.Sprintf("shards=%d", shards))

		// Removal republishes: the rebuilt views must still cover everything.
		if ok, err := c.Delete(sks[0].Name); err != nil || !ok {
			t.Fatalf("delete failed: removed=%v err=%v", ok, err)
		}
		_, stats, err = c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Fallback != 0 || stats.Columnar != stats.Candidates {
			t.Fatalf("shards=%d: post-remove scan not fully columnar: %+v", shards, stats)
		}
	}
}

// TestCatalogConcurrentPublishWhileColumnarScan: copy-on-write publishes
// (which rebuild the packed views) racing columnar searches must stay
// consistent — every search scores each candidate on exactly one path and
// never errors. Run under -race in CI.
func TestCatalogConcurrentPublishWhileColumnarScan(t *testing.T) {
	qSk, sks := fixtureSketches(t, 48)
	c := New(Options{Shards: 8})
	for _, sk := range sks[:24] {
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w * 12; i < (w+1)*12; i++ {
					if err := c.Put(sks[i]); err != nil {
						errCh <- err
						return
					}
				}
				for i := w * 12; i < w*12+6; i++ {
					if _, err := c.Delete(sks[i].Name); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, stats, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 5})
				if err != nil {
					errCh <- err
					return
				}
				if stats.Columnar+stats.Fallback != stats.Candidates {
					errCh <- fmt.Errorf("scan paths double-count: %+v", stats)
					return
				}
				if stats.Fallback != 0 {
					// Published views cover every entry; a fallback means a
					// reader saw an index whose view was never built.
					errCh <- fmt.Errorf("published index scanned decoded: %+v", stats)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
