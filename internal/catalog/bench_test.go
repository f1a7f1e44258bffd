package catalog

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	ipsketch "repro"
)

// benchCatalog pre-loads a catalog and returns sketches to churn through
// Put (the steady-state ingest path: replacements against a populated
// catalog, so the per-Put shard rebuild cost is realistic).
func benchCatalog(b *testing.B, tables int) (*Catalog, []*ipsketch.TableSketch) {
	b.Helper()
	_, sks := fixtureSketches(b, tables)
	c := New(Options{Shards: DefaultShards})
	for _, sk := range sks {
		if err := c.Put(sk); err != nil {
			b.Fatal(err)
		}
	}
	return c, sks
}

// vectorsPerTable is the sketch-bundle fan-out of the fixture tables: the
// key-indicator vector plus value and squared-value vectors for the one
// column.
const vectorsPerTable = 3

// BenchmarkCatalogIngest measures catalog Put throughput (the serving
// layer's ingest hot path once sketches are built) at one core and at
// every core, reporting vectors/s under the bundle accounting.
func BenchmarkCatalogIngest(b *testing.B) {
	configs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		configs = append(configs, n)
	}
	for _, procs := range configs {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			c, sks := benchCatalog(b, 256)
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					sk := sks[next.Add(1)%uint64(len(sks))]
					if err := c.Put(sk); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(vectorsPerTable*b.N)/b.Elapsed().Seconds(), "vecs/s")
		})
	}
}

// BenchmarkCatalogSearchTopK measures the sharded top-10 search against a
// populated catalog.
func BenchmarkCatalogSearchTopK(b *testing.B) {
	qSk, sks := fixtureSketches(b, 256)
	c := New(Options{Shards: DefaultShards})
	for _, sk := range sks {
		if err := c.Put(sk); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
