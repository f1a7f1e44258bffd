package ipsketch

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashing"
)

// SketchIndex is an in-memory dataset-search catalog: a collection of
// table sketches that can be ranked against a query table by estimated
// post-join statistics, without touching the original data. This is the
// search-side of the paper's §1.2 workflow ("a small-space sketch is
// precomputed for all data tables in the search set; when the analyst
// issues a query ... a sketch of her table is compared against these
// preexisting sketches").
//
// All sketches in an index come from one configuration (one
// TableSketcher: method, size, seed, variants and key space), because only
// such sketches are comparable: the first sketch added pins it, and Add
// refuses every sketch that is not CompatibleWith the pinned one. A search
// therefore checks its query against one entry per index, not per
// candidate.
//
// Search fans candidate scoring across a bounded worker pool and keeps
// only a bounded per-worker heap of the Query.K best candidates, so
// catalog search scales with cores and pays O(n log k) instead of
// O(n log n) for the k results callers actually want.
// Scoring dispatches through the backend registry (EstimateJoinStats →
// Estimate), so an index works unchanged for every registered method.
type SketchIndex struct {
	// entries[0], once present, is the pinned configuration: every other
	// entry is CompatibleWith it.
	entries []*TableSketch
	byName  map[string]int
	// view is the columnar (structure-of-arrays) scan pack built by
	// BuildColumnar; nil means every search takes the decoded path.
	// Mutation invalidates it — the catalog rebuilds at publish time.
	view *columnarView
	// lshView is the banded candidate index built by BuildLSH; nil means
	// lsh-mode searches fail with ErrNoLSHIndex. Mutation invalidates it —
	// the catalog rebuilds at publish time alongside view.
	lshView *lshView
}

// NewSketchIndex returns an empty index.
func NewSketchIndex() *SketchIndex {
	return &SketchIndex{byName: map[string]int{}}
}

// NewStrictSketchIndex returns an empty index.
//
// Deprecated: every index pins its configuration; use NewSketchIndex. It
// stays only until the benchmark harness moves off it (ROADMAP.md item 4).
func NewStrictSketchIndex() *SketchIndex { return NewSketchIndex() }

// Add registers a table sketch. Re-adding a name replaces the previous
// sketch. A sketch incompatible with the index's pinned configuration
// (the first sketch added) is refused.
func (ix *SketchIndex) Add(ts *TableSketch) error {
	if ts == nil {
		return errors.New("ipsketch: nil table sketch")
	}
	if len(ix.entries) > 0 {
		if err := ts.CompatibleWith(ix.entries[0]); err != nil {
			return fmt.Errorf("ipsketch: adding %q to the index: %w", ts.Name, err)
		}
	}
	// Both views index entry positions; any mutation stales them.
	ix.view = nil
	ix.lshView = nil
	if pos, ok := ix.byName[ts.Name]; ok {
		ix.entries[pos] = ts
		return nil
	}
	ix.byName[ts.Name] = len(ix.entries)
	ix.entries = append(ix.entries, ts)
	return nil
}

// Len returns the number of indexed tables.
func (ix *SketchIndex) Len() int { return len(ix.entries) }

// Tables returns the indexed table names in scan order (the order Search
// uses to break score ties).
func (ix *SketchIndex) Tables() []string {
	out := make([]string, len(ix.entries))
	for i, e := range ix.entries {
		out[i] = e.Name
	}
	return out
}

// Get returns the sketch registered under name.
func (ix *SketchIndex) Get(name string) (*TableSketch, bool) {
	pos, ok := ix.byName[name]
	if !ok {
		return nil, false
	}
	return ix.entries[pos], true
}

// RankBy selects the ranking statistic for Search.
type RankBy int

// Ranking statistics.
const (
	// RankByJoinSize orders candidates by estimated join size — the
	// "joinability" search of Zhu et al. / Fernandez et al.
	RankByJoinSize RankBy = iota
	// RankByAbsCorrelation orders candidates by |estimated post-join
	// correlation| — the join-correlation search of Santos et al.
	RankByAbsCorrelation
	// RankByAbsInnerProduct orders candidates by |estimated post-join
	// inner product|.
	RankByAbsInnerProduct
)

// SearchResult is one ranked candidate.
type SearchResult struct {
	// Table and Column identify the candidate.
	Table, Column string
	// Score is the ranking statistic (see RankBy).
	Score float64
	// Stats are the full estimated join statistics against the query.
	Stats JoinStats
}

// scored is one candidate the rank phase retained: its score, its scan
// ordinal (source index of the request, entry position, column position)
// and the statistics known so far — complete for decoded candidates and
// all-six rank phases, otherwise just the raw Size (and InnerProduct) the
// ranking read, until fill computes the rest. It holds no pointers, so a
// pooled heap keeps nothing alive.
type scored struct {
	score         float64
	src, ent, col int
	full          bool
	st            JoinStats
}

// searchSource is one index snapshot of a search.
type searchSource struct {
	ix *SketchIndex
	// view is the index's columnar view; non-nil means it scans packed.
	view *columnarView
	// The scan list: every entry position in [0, n) when ents is nil (full
	// scan), else the n ascending candidate positions ents (lsh mode).
	ents []int
	n    int
}

// scanUnit is a contiguous piece of one source's scan list; workers pull
// units until none are left.
type scanUnit struct{ src, lo, hi int }

const (
	unitsPerWorker = 4  // target units per worker, for load balance
	minUnit        = 16 // smallest scan-list piece worth a unit of its own
)

// rankWorker is one worker's share of the rank phase: a bounded
// worst-at-root heap of the best k candidates seen (every candidate when
// k < 0), kernel output rows, the first error it met, and the worker's
// scan counters.
type rankWorker struct {
	items    []scored
	tbl, col []float64
	err      error
	stats    ScanStats
}

// searcher is the state of one search. Everything a search allocates
// besides its result slice lives here and is reused through searchers, so
// a search's allocation count does not depend on how many index snapshots
// it covers.
type searcher struct {
	Query
	q          columnarQuery
	rank, fill estPlan

	srcs    []searchSource
	units   []scanUnit
	next    atomic.Int64
	wg      sync.WaitGroup
	workers []rankWorker
	merged  []scored
}

var searchers = sync.Pool{New: func() any { return new(searcher) }}

// release drops every reference the search held and returns the scratch.
func (s *searcher) release() {
	s.Query, s.q = Query{}, nil
	clear(s.srcs)
	for i := range s.workers {
		w := &s.workers[i]
		*w = rankWorker{items: w.items[:0], tbl: w.tbl, col: w.col}
	}
	searchers.Put(s)
}

// resize returns buf with length n, keeping its backing array (and, for
// pooled scratch, whatever the elements beyond the old length still hold)
// when that is large enough.
func resize[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// better reports whether a ranks strictly ahead of b: descending score,
// ties broken by scan order — (entry, column) position within an index,
// which makes the parallel search deterministic and identical to a
// sequential stable sort, and (table, column) name across indexes, which
// is the scan order of one name-sorted index over their union (the
// catalog's shards are name-sorted, so the two agree).
func (s *searcher) better(a, b *scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.src != b.src {
		ta, tb := s.srcs[a.src].ix.entries[a.ent], s.srcs[b.src].ix.entries[b.ent]
		if ta.Name != tb.Name {
			return ta.Name < tb.Name
		}
		return ta.Columns()[a.col] < tb.Columns()[b.col]
	}
	if a.ent != b.ent {
		return a.ent < b.ent
	}
	return a.col < b.col
}

// rankScore derives the ranking statistic from what the rank phase
// computed; by is validated by the caller.
func rankScore(by RankBy, st *JoinStats) float64 {
	switch by {
	case RankByJoinSize:
		return st.Size
	case RankByAbsCorrelation:
		return math.Abs(st.Correlation)
	default: // RankByAbsInnerProduct
		return math.Abs(st.InnerProduct)
	}
}

// offer is the one scoring routine every candidate goes through, packed
// or decoded, full scan or lsh rescore: minJoinSize prune, score, NaN
// skip, bounded heap under better.
func (s *searcher) offer(w *rankWorker, c *scored) {
	w.stats.Candidates++
	if c.st.Size < s.MinJoinSize {
		w.stats.Pruned++
		return
	}
	c.score = rankScore(s.RankBy, &c.st)
	if math.IsNaN(c.score) {
		return
	}
	h := w.items
	if s.K < 0 || len(h) < s.K {
		h = append(h, *c)
		w.items = h
		if s.K < 0 {
			return
		}
		// Sift up: parents hold *worse* candidates.
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !s.better(&h[parent], &h[i]) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return
	}
	if !s.better(c, &h[0]) {
		return // not better than the worst retained candidate
	}
	h[0] = *c
	// Sift down toward the worse child.
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		worst := l
		if r := l + 1; r < len(h) && s.better(&h[l], &h[r]) {
			worst = r
		}
		if s.better(&h[worst], &h[i]) {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// rankPacked scores the entries [tLo, tHi) of packed source si: one kernel
// call computes the rank plan's estimates for the whole range, then every
// column is offered with what the plan computed.
func (s *searcher) rankPacked(w *rankWorker, si, tLo, tHi int) {
	src := &s.srcs[si]
	v, pl := src.view, &s.rank
	cLo, cHi := v.colOff[tLo], v.colOff[tHi]
	w.tbl = resize(w.tbl, pl.tblStride*(tHi-tLo))
	w.col = resize(w.col, pl.colStride*(cHi-cLo))
	v.pk.scan(s.q, pl, tLo, tHi, w.tbl, cLo, cHi, w.col)
	for t := tLo; t < tHi; t++ {
		if src.ix.entries[t].Name == s.Sketch.Name {
			continue
		}
		tr := w.tbl[pl.tblStride*(t-tLo):]
		for c := v.colOff[t]; c < v.colOff[t+1]; c++ {
			cr := w.col[pl.colStride*(c-cLo):]
			cand := scored{src: si, ent: t, col: c - v.colOff[t]}
			if pl.want == estAll {
				cand.st = assembleJoinStats(tr[pl.slot[slotSize]], tr[pl.slot[slotSumA]], cr[pl.slot[slotSumB]],
					tr[pl.slot[slotSumSqA]], cr[pl.slot[slotSumSqB]], cr[pl.slot[slotIP]])
				cand.full = true
			} else {
				cand.st.Size = tr[pl.slot[slotSize]]
				if pl.slot[slotIP] >= 0 {
					cand.st.InnerProduct = cr[pl.slot[slotIP]]
				}
			}
			w.stats.Columnar++
			s.offer(w, &cand)
		}
	}
}

// rankDecoded scores one entry through the decoded all-six estimator —
// the reference path, and the only one for an index without a view (a
// family without a pack, or a view never built). The search checked the
// query against the index, so the estimator does not fail on a
// configuration mismatch.
func (s *searcher) rankDecoded(w *rankWorker, si, ent int) {
	src := &s.srcs[si]
	cand := src.ix.entries[ent]
	if cand.Name == s.Sketch.Name {
		return
	}
	for col, colName := range cand.Columns() {
		st, err := EstimateJoinStats(s.Sketch, s.Column, cand, colName)
		if err != nil {
			if w.err == nil {
				w.err = fmt.Errorf("ipsketch: searching %s.%s: %w", cand.Name, colName, err)
			}
			continue
		}
		w.stats.Fallback++
		s.offer(w, &scored{src: si, ent: ent, col: col, full: true, st: st})
	}
}

// rankUnit runs the rank phase over one unit of a source's scan list,
// packed or decoded as the source is. Stage timers are two clock reads per
// unit, nothing per candidate.
func (s *searcher) rankUnit(w *rankWorker, u scanUnit) {
	src := &s.srcs[u.src]
	start := time.Now()
	switch {
	case src.view == nil:
		for i := u.lo; i < u.hi; i++ {
			ent := i
			if src.ents != nil {
				ent = src.ents[i]
			}
			s.rankDecoded(w, u.src, ent)
		}
		w.stats.FallbackNanos += time.Since(start).Nanoseconds()
		return
	case src.ents == nil:
		s.rankPacked(w, u.src, u.lo, u.hi)
	default:
		// Each candidate's estimates depend only on its own slice of the
		// pack, so single-table kernel calls produce the same floats as
		// the full range scan.
		for _, ent := range src.ents[u.lo:u.hi] {
			s.rankPacked(w, u.src, ent, ent+1)
		}
	}
	w.stats.ColumnarNanos += time.Since(start).Nanoseconds()
}

// fillStats completes a retained candidate's statistics: the estimates the
// rank phase skipped run through single-table, single-column kernel calls,
// and the six assemble exactly as the decoded path assembles them. Every
// raw estimate is a pure function of (query sketch, candidate sketch), so
// computing it now instead of during the scan cannot change a bit.
func (s *searcher) fillStats(w *rankWorker, c *scored) {
	if c.full {
		return
	}
	v, pl := s.srcs[c.src].view, &s.fill
	at := v.colOff[c.ent] + c.col
	w.tbl, w.col = resize(w.tbl, pl.tblStride), resize(w.col, pl.colStride)
	v.pk.scan(s.q, pl, c.ent, c.ent+1, w.tbl, at, at+1, w.col)
	ip := c.st.InnerProduct
	if pl.slot[slotIP] >= 0 {
		ip = w.col[pl.slot[slotIP]]
	}
	c.st = assembleJoinStats(c.st.Size, w.tbl[pl.slot[slotSumA]], w.col[pl.slot[slotSumB]],
		w.tbl[pl.slot[slotSumSqA]], w.col[pl.slot[slotSumSqB]], ip)
	c.full = true
}

// Query is one search: the query sketch's column ranked against every
// cataloged (table, column). The same value goes from a client through
// the service and the catalog down to SearchIndexes.
type Query struct {
	// Sketch is the query table's sketch. A cataloged table with the same
	// name is excluded from the ranking.
	Sketch *TableSketch
	// Column is the query column.
	Column string
	// RankBy is the ranking statistic.
	RankBy RankBy
	// MinJoinSize skips candidates whose estimated join size falls below
	// it (tiny joins make ratio statistics meaningless).
	MinJoinSize float64
	// K bounds the results: k < 0 returns every candidate, k == 0 none.
	K int
	// LSH scores only the query's band candidates instead of every
	// entry; every index searched needs an LSH view (BuildLSH). Probes
	// bounds how many bands are probed: ≤ 0 probes every band,
	// 1 ≤ probes < Bands trades recall for probe cost along
	// 1 − (1 − J^Rows)^probes.
	LSH    bool
	Probes int
}

// Search ranks the index's (table, column) candidates against q and
// reports the scan's counters: how many candidate columns were scored,
// how many the MinJoinSize filter pruned, how the scoring split between
// the columnar kernel and the decoded fallback, and in lsh mode the
// banded stage's probe and candidate counts. Scoring runs in parallel
// across tables; the ranking is deterministic.
func (ix *SketchIndex) Search(q Query) ([]SearchResult, ScanStats, error) {
	return SearchIndexes([]*SketchIndex{ix}, q)
}

// SearchTopKStats is Search of a full-scan query.
//
// Deprecated: use Search. It stays only until the benchmark harness moves
// onto Search (ROADMAP.md item 4(a)).
func (ix *SketchIndex) SearchTopKStats(query *TableSketch, queryCol string, by RankBy, minJoinSize float64, k int) ([]SearchResult, ScanStats, error) {
	return ix.Search(Query{Sketch: query, Column: queryCol, RankBy: by, MinJoinSize: minJoinSize, K: k})
}

// SearchIndexes ranks the (table, column) candidates of several index
// snapshots against q as one search: a full scan of every entry, or with
// q.LSH the band candidates of the query — the same scoring either way.
// It is what SketchIndex.Search and the sharded catalog run on.
//
// The search is rank first, fill in later. The rank phase computes, for
// every candidate, only the raw estimates the MinJoinSize filter and the
// ranking read (the join size; plus the inner product, or all six, by
// RankBy) and keeps the k best per worker; the per-worker heaps merge
// under (score desc, scan order) into the final k; only those get their
// remaining estimates computed and their JoinStats assembled. Results
// are bit-identical to scoring every candidate in full. Each worker
// scores its share into a bounded heap, so a search costs O(n·m)
// estimation plus O(n log k) ranking rather than a full sort.
//
// Ties across indexes break by (table, column) name, so name-sorted
// indexes with disjoint tables rank exactly like one name-sorted index
// over their union.
//
// The query is checked once per search, before any scan: it must carry
// q.Column and be CompatibleWith each non-empty index's pinned
// configuration, which makes it comparable with every entry.
func SearchIndexes(ixs []*SketchIndex, q Query) ([]SearchResult, ScanStats, error) {
	var stats ScanStats
	if q.Sketch == nil {
		return nil, stats, errors.New("ipsketch: nil query sketch")
	}
	switch q.RankBy {
	case RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct:
	default:
		return nil, stats, fmt.Errorf("ipsketch: unknown ranking %d", int(q.RankBy))
	}
	if _, ok := q.Sketch.val[q.Column]; !ok {
		return nil, stats, fmt.Errorf("ipsketch: query table %q sketch has no column %q", q.Sketch.Name, q.Column)
	}
	for _, ix := range ixs {
		if q.LSH && ix.lshView == nil {
			return nil, stats, ErrNoLSHIndex
		}
		if len(ix.entries) > 0 {
			if err := q.Sketch.CompatibleWith(ix.entries[0]); err != nil {
				return nil, stats, fmt.Errorf("ipsketch: query %q against the index: %w", q.Sketch.Name, err)
			}
		}
	}
	if q.K == 0 {
		return nil, stats, nil
	}

	s := searchers.Get().(*searcher)
	defer s.release()
	s.Query = q
	want := rankEstimates(q.RankBy, q.K)
	s.rank, s.fill = newEstPlan(want), newEstPlan(estAll&^want)

	scanStart := time.Now()
	if err := s.plan(ixs, &stats); err != nil {
		return nil, stats, err
	}
	s.run()
	stats.ScanNanos = time.Since(scanStart).Nanoseconds()

	var err error
	for i := range s.workers {
		stats.Add(s.workers[i].stats)
		err = cmp.Or(err, s.workers[i].err)
	}
	if err != nil {
		return nil, stats, err
	}

	// Merge the workers' heaps and rank: descending score, scan order on
	// ties — exactly the order a sequential stable sort would produce.
	mergeStart := time.Now()
	merged := s.merged[:0]
	for i := range s.workers {
		merged = append(merged, s.workers[i].items...)
	}
	s.merged = merged
	slices.SortFunc(merged, func(a, b scored) int {
		switch {
		case s.better(&a, &b):
			return -1
		case s.better(&b, &a):
			return 1
		}
		return 0
	})
	if q.K >= 0 && len(merged) > q.K {
		merged = merged[:q.K]
	}
	fillStart := time.Now()
	stats.MergeNanos = fillStart.Sub(mergeStart).Nanoseconds()
	if len(merged) == 0 {
		return nil, stats, nil
	}

	// Fill: only the request's final results, after the last merge.
	out := make([]SearchResult, len(merged))
	fillers := hashing.WorkerCount(len(merged))
	s.workers = resize(s.workers, max(fillers, len(s.workers)))
	hashing.ParallelWorkers(len(merged), fillers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := &merged[i]
			s.fillStats(&s.workers[w], c)
			e := s.srcs[c.src].ix.entries[c.ent]
			out[i] = SearchResult{Table: e.Name, Column: e.Columns()[c.col], Score: c.score, Stats: c.st}
		}
	})
	stats.FillNanos = time.Since(fillStart).Nanoseconds()
	return out, stats, nil
}

// plan resolves each index into a source (packed or decoded, and in lsh
// mode its candidate scan list) and cuts the scan lists into units.
func (s *searcher) plan(ixs []*SketchIndex, stats *ScanStats) error {
	var qsig []uint64
	if s.LSH {
		if s.Sketch.key == nil {
			return errors.New("ipsketch: lsh search: query has no key sketch")
		}
		var err error
		if qsig, err = s.Sketch.key.LSHSignature(); err != nil {
			return fmt.Errorf("ipsketch: lsh search: %w", err)
		}
	}
	s.srcs = resize(s.srcs, len(ixs))
	total := 0
	for i, ix := range ixs {
		src := &s.srcs[i]
		src.ix, src.n, src.view = ix, len(ix.entries), ix.view
		if ix.view != nil && s.q == nil {
			// Pre-decode the query once per search for every packed index.
			s.q = prepareColumnarQuery(s.Sketch, s.Column)
		}
		if s.LSH {
			if err := src.gather(qsig, s.Probes, stats); err != nil {
				return err
			}
		}
		total += src.n
	}

	// One worker count sizes the worker slots AND drives the fan-out, so
	// the two can never disagree (GOMAXPROCS may change between calls).
	workers := hashing.WorkerCount(total)
	s.workers, s.units = resize(s.workers, workers), s.units[:0]
	// Units are a few per worker (but not so small that the per-unit
	// kernel call and clock reads show), so workers that start late or
	// draw slow shards even out by pulling.
	chunk := max((total+unitsPerWorker*workers-1)/(unitsPerWorker*workers), minUnit)
	for i := range s.srcs {
		for lo := 0; lo < s.srcs[i].n; lo += chunk {
			s.units = append(s.units, scanUnit{src: i, lo: lo, hi: min(lo+chunk, s.srcs[i].n)})
		}
	}
	return nil
}

// run fans the units across the workers: one pool for the whole search,
// however many indexes it covers. The calling goroutine is worker 0, so a
// search makes progress from its first instruction and a helper that
// wakes late simply finds fewer units left.
func (s *searcher) run() {
	s.next.Store(0)
	for i := 1; i < len(s.workers); i++ {
		s.wg.Add(1)
		go func(w *rankWorker) {
			defer s.wg.Done()
			s.pull(w)
		}(&s.workers[i])
	}
	s.pull(&s.workers[0])
	s.wg.Wait()
}

// pull ranks units until none are left.
func (s *searcher) pull(w *rankWorker) {
	for u := int(s.next.Add(1)) - 1; u < len(s.units); u = int(s.next.Add(1)) - 1 {
		s.rankUnit(w, s.units[u])
	}
}
