package catalog

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
)

// The served shape: the bench corpus of search_sketch and ingest_mixed
// (1000 tables of two value columns, WMH at 400 words, built by the dart
// construction) over DefaultShards shards, so a Put re-packs a run of a
// shard of about 62 tables, as a sketchd write does.
const (
	servedTables = 1000
	servedRows   = 1000
)

// sketchServed sketches n tables of servedRows rows and two value
// columns, "v" and "w", with overlapping keys. Table j reads the j-th
// stretch of one SplitMix64 stream, so a shorter corpus is a prefix of a
// longer one, byte for byte.
func sketchServed(n int) ([]*ipsketch.TableSketch, error) {
	ts, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 7}, fixtureKeySpace)
	if err != nil {
		return nil, err
	}
	rng := hashing.NewSplitMix64(99)
	sks := make([]*ipsketch.TableSketch, n)
	for j := range sks {
		keys := make([]uint64, servedRows)
		v := make([]float64, servedRows)
		w := make([]float64, servedRows)
		for i := range keys {
			keys[i] = uint64(i*(j%5+1) + j) // strictly increasing for fixed j
			v[i], w[i] = rng.Norm(), rng.Norm()
		}
		tab, err := ipsketch.NewTable(fmt.Sprintf("t%04d", j), keys, map[string][]float64{"v": v, "w": w})
		if err != nil {
			return nil, err
		}
		if sks[j], err = ts.SketchTable(tab); err != nil {
			return nil, err
		}
	}
	return sks, nil
}

// served is the largest corpus the benchmarks read, 4×servedTables
// tables, sketched once per test binary; a benchmark of n tables reads
// its first n.
var served struct {
	once sync.Once
	sks  []*ipsketch.TableSketch
	err  error
}

// servedSketches returns the first n tables of the served corpus.
func servedSketches(b *testing.B, n int) []*ipsketch.TableSketch {
	b.Helper()
	served.once.Do(func() { served.sks, served.err = sketchServed(4 * servedTables) })
	if served.err != nil {
		b.Fatal(served.err)
	}
	return served.sks[:n]
}

// TestServedSketchesArePrefixes: the benchmarks share one sketched corpus
// and read prefixes of it, which stands for sketching each size alone only
// if a shorter corpus is a byte-identical prefix of a longer one.
func TestServedSketchesArePrefixes(t *testing.T) {
	short, err := sketchServed(3)
	if err != nil {
		t.Fatal(err)
	}
	long, err := sketchServed(6)
	if err != nil {
		t.Fatal(err)
	}
	for i, sk := range short {
		a, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := long[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("table %d of a 3-table corpus differs from table %d of a 6-table one", i, i)
		}
	}
}

// servedCatalog returns a catalog of sks, each shard published once
// through one Restore.
func servedCatalog(b *testing.B, sks []*ipsketch.TableSketch, lshp *ipsketch.LSHParams) *Catalog {
	b.Helper()
	c := New(Options{Shards: DefaultShards, LSH: lshp})
	err := c.Restore(func(r *Restore) error {
		for _, sk := range sks {
			if _, _, err := r.Apply(mutation(MutationPut, sk)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// vectorsPerTable is the sketch-bundle fan-out of the served tables: the
// key-indicator vector plus value and squared-value vectors for each of
// the two columns.
const vectorsPerTable = 5

// servedLSH is the banding sketchd serves mode=lsh with in the benchmark
// workloads: 16 bands of 2 rows.
var servedLSH = ipsketch.LSHParams{Bands: 16, Rows: 2}

// BenchmarkCatalogIngest measures catalog Put at the served shape (the
// serving layer's ingest hot path once sketches are built: replacements
// against a populated catalog, each deriving its shard's next published
// index) at one core and at every core, reporting vectors/s under the
// bundle accounting and the bytes and allocations of each Put. The tables
// dimension runs it at the served corpus and at four times it, whose
// shards hold about 250 tables instead of 62: a Put re-packs one run of
// its shard, so the two should cost about the same. The lsh dimension runs
// it without banding and with servedLSH: a Put bands only the run it
// re-packs, so banding should add little.
func BenchmarkCatalogIngest(b *testing.B) {
	sizes := []int{servedTables, 4 * servedTables}
	configs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		configs = append(configs, n)
	}
	bandings := []struct {
		name string
		p    *ipsketch.LSHParams
	}{{"off", nil}, {fmt.Sprintf("%dx%d", servedLSH.Bands, servedLSH.Rows), &servedLSH}}
	for _, procs := range configs {
		for _, n := range sizes {
			for _, lsh := range bandings {
				benchIngest(b, fmt.Sprintf("procs=%d/tables=%d/lsh=%s", procs, n, lsh.name), procs, servedSketches(b, n), lsh.p)
			}
		}
	}
}

// benchIngest is one BenchmarkCatalogIngest point: Puts of sks into a
// catalog that holds them all, banded under lshp when it is set. The
// catalog is filled by one Restore; its runs are cut as Puts would have
// cut them, because the cut is a function of the names. A collection
// then retires the fill's garbage, so the timed Puts do not pay for it.
func benchIngest(b *testing.B, name string, procs int, sks []*ipsketch.TableSketch, lshp *ipsketch.LSHParams) {
	b.Run(name, func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		c := servedCatalog(b, sks, lshp)
		runtime.GC()
		var next atomic.Uint64
		b.ReportAllocs()
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

// BenchmarkCatalogSearchTopK measures the sharded top-10 search at the
// served shape (servedSketches over DefaultShards shards, the query one of
// the cataloged tables, which excludes itself) for each ranking, at one
// core and at every core, reporting the allocations of a search.
func BenchmarkCatalogSearchTopK(b *testing.B) {
	sks := servedSketches(b, servedTables)
	c := servedCatalog(b, sks, nil)
	procs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		procs = append(procs, n)
	}
	for _, rank := range []struct {
		name string
		by   ipsketch.RankBy
	}{
		{"join_size", ipsketch.RankByJoinSize},
		{"abs_ip", ipsketch.RankByAbsInnerProduct},
		{"abs_corr", ipsketch.RankByAbsCorrelation},
	} {
		q := ipsketch.Query{Sketch: sks[0], Column: "v", RankBy: rank.by, K: 10}
		for _, p := range procs {
			b.Run(fmt.Sprintf("rank=%s/procs=%d", rank.name, p), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(p)
				defer runtime.GOMAXPROCS(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.Search(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
