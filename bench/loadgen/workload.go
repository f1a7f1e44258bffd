package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	ipsketch "repro"
)

// warmSearches and warmWrites run untimed at the start of every pass, so
// the measured phases start with warm caches, a grown heap and an open
// connection.
const (
	warmSearches = 50
	warmWrites   = 10
)

// workloadData is a corpus turned into requests, plus what the harness
// keeps in process to check the daemon's answers.
type workloadData struct {
	spec     spec
	corp     *corpus
	sketcher *ipsketch.TableSketcher

	ingest []request               // one PUT per corpus table, in ingest order
	tabs   []*ipsketch.Table       // corpus tables (exact join statistics)
	sks    []*ipsketch.TableSketch // corpus sketches (oracle index)

	qtabs   []*ipsketch.Table
	qsks    []*ipsketch.TableSketch
	queries [][]byte  // each query table as it travels: raw JSON or a bundle
	reads   []request // one search per query, issued round-robin

	writes      []request
	writesCycle bool // false: the sequence creates state and cannot repeat
}

// prepare generates the corpus and encodes the ingest requests,
// sketching first when the workload ships bundles. It is a pure function
// of (spec, seed) and runs once, before the first timed set-up: like the
// build, it is the harness getting ready, not the system.
func prepare(s spec, seed uint64) (*workloadData, error) {
	sketcher, err := ipsketch.NewTableSketcher(sketchConfig, 0)
	if err != nil {
		return nil, err
	}
	wd := &workloadData{spec: s, corp: generate(s, seed), sketcher: sketcher}
	wd.ingest = make([]request, len(wd.corp.tables))
	if s.Raw {
		for i, t := range wd.corp.tables {
			if wd.ingest[i], err = rawPut(t); err != nil {
				return nil, err
			}
		}
		return wd, nil
	}
	if err := wd.sketchCorpus(); err != nil {
		return nil, err
	}
	for i, sk := range wd.sks {
		bundle, err := sk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		wd.ingest[i] = bundlePut(sk.Name, bundle)
	}
	return wd, nil
}

// sketchCorpus builds the tables and their sketches, one builder per
// core. A builder's output is byte-identical to the chunked path the
// daemon's ingest uses (TestBundleMatchesDaemonSketch), so a raw PUT and
// a harness-built bundle of one table are the same sketch.
func (wd *workloadData) sketchCorpus() error {
	n := len(wd.corp.tables)
	wd.tabs = make([]*ipsketch.Table, n)
	wd.sks = make([]*ipsketch.TableSketch, n)
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := wd.sketcher.NewBuilder()
			for i := w; i < n && err == nil; i += workers {
				if wd.tabs[i], err = wd.corp.tables[i].table(); err == nil {
					wd.sks[i], err = b.SketchTable(wd.tabs[i])
				}
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// finish encodes the queries and the write sequence and fills in what
// the oracle needs. It runs once, off every clock. opsPerPass bounds the
// non-repeating write sequence of the mixed workload.
func (wd *workloadData) finish(seed uint64, opsPerPass int) error {
	if wd.sks == nil {
		if err := wd.sketchCorpus(); err != nil {
			return err
		}
	}
	for i, q := range wd.corp.queries {
		tab, err := q.table.table()
		if err != nil {
			return err
		}
		sk, err := wd.sketcher.SketchTableChunked(tab)
		if err != nil {
			return err
		}
		bundle, err := sk.MarshalBinary()
		if err != nil {
			return err
		}
		req, query, err := searchRequest(wd.spec, i, q.table, bundle)
		if err != nil {
			return err
		}
		wd.qtabs, wd.qsks, wd.queries, wd.reads = append(wd.qtabs, tab), append(wd.qsks, sk), append(wd.queries, query), append(wd.reads, req)
	}
	rng := rand.New(rand.NewPCG(seed, streamOps))
	perm := rng.Perm(len(wd.corp.tables))
	if !wd.spec.Mixed {
		// Re-put existing tables with identical content: the catalog is the
		// same before and after, so every pass and every read sees one state.
		wd.writesCycle = true
		for _, i := range perm {
			wd.writes = append(wd.writes, wd.ingest[i])
		}
		return nil
	}
	return wd.mixedWrites(rng, perm, seed, opsPerPass)
}

// mixedWrites is the writer of ingest_mixed, in a fixed order of five:
// three raw PUTs of new tables, one merge, one DELETE of the oldest table
// this sequence added.
//
// The merge re-pushes the rows of a cataloged table under a fresh
// Idempotency-Key. WMH merges only partials that carry the parent's
// normalisation (wmh.Merge compares the stored norms), and a re-push of
// the same rows is the one such partial the HTTP API can produce; a
// disjoint-key partial is answered 400 under the pinned configuration.
func (wd *workloadData) mixedWrites(rng *rand.Rand, perm []int, seed uint64, n int) error {
	var added []string
	merges := 0
	for j := 0; j < n; j++ {
		switch j % 5 {
		case 0, 1, 2:
			t := looseTable(rng, fmt.Sprintf("n%05d", j), wd.spec)
			r, err := rawPut(t)
			if err != nil {
				return err
			}
			wd.writes = append(wd.writes, r)
			added = append(added, t.name)
		case 3:
			t := wd.corp.tables[perm[merges%len(perm)]]
			body, err := rawPut(t)
			if err != nil {
				return err
			}
			r := newRequest(opMerge, "POST", "/tables/"+t.name+"/merge", "application/json",
				fmt.Sprintf("loadgen-%d-%d", seed, j), body.payload())
			r.name = t.name
			wd.writes = append(wd.writes, r)
			merges++
		case 4:
			r := newRequest(opDelete, "DELETE", "/tables/"+added[0], "", "", nil)
			r.name = added[0]
			added = added[1:]
			wd.writes = append(wd.writes, r)
		}
	}
	return nil
}

// checkpointAt is how many corpus tables are ingested before the
// set-up's snapshot: all of them, or half when the rest must stay in the
// un-checkpointed WAL tail.
func (wd *workloadData) checkpointAt() int {
	if wd.spec.Mixed {
		return len(wd.ingest) / 2
	}
	return len(wd.ingest)
}
