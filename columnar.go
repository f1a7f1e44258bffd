package ipsketch

import (
	"repro/internal/hashing"
	"repro/internal/lsh"
	"repro/internal/sample"
)

// This file is the structure-of-arrays scan path of SketchIndex: at build
// time the entries are cut into runs of consecutive entries, and each
// run's sketch bundles are copied into one family-specific columnar pack
// (three internal/sample layouts: flat tag/value arrays plus one aux word
// per sketch); at search time the query bundle streams those arrays, one
// kernel call per run, with zero per-candidate decoding, map lookups, or
// interface dispatch — the numba-kernel shape of the related sampling
// repos, specialized per family behind the backend descriptor's packs
// field. The packs are then the one copy of the samples: every entry is
// replaced by a bundle of views whose samples alias its run's pack (see
// BuildColumnar), and a rebuild re-packs only the runs whose entries
// changed. A view covers every entry of its index: the index pins one
// configuration, so either every entry packs (a packed family) or none
// does (JL, CS and SimHash scan decoded through EstimateJoinStats). Both
// paths run each family's one per-pair scorer and assemble JoinStats
// through the same helper, so rankings are bit-identical either way.

// The six raw pairwise estimates JoinStats is assembled from, on the
// fixed three-slot rows the kernels fill: a table row holds the three
// estimates against the table's key sketch, a column row the two against
// the column's value sketch and the one against its squared-value
// sketch. Within the key and value packs, query operand i of the bundle's
// key, value, squared-value order fills slot i: its output offset is
// slots[i].
const (
	slotSize   = 0 // table row, qKey vs key: join size
	slotSumA   = 1 // table row, qVal vs key: Σ V_A
	slotSumSqA = 2 // table row, qSq vs key: Σ V_A²
	slotSumB   = 0 // column row, qKey vs value: Σ V_B
	slotIP     = 1 // column row, qVal vs value: ⟨V_A, V_B⟩
	slotSumSqB = 2 // column row, qKey vs squared value: Σ V_B²
	rowWidth   = 3
)

var slots = [rowWidth]int{0, 1, 2}

// rankPlan is what the rank phase of a search computes for every
// candidate: the MinJoinSize filter reads the join size, and the score
// reads the size, the inner product, or (for the correlation) all six.
type rankPlan uint8

const (
	planSize   rankPlan = iota // the join size, one per table
	planSizeIP                 // and ⟨V_A, V_B⟩ per column
	planAll                    // all six
)

// planFor returns the rank plan of a search. An unbounded search keeps
// every candidate, so it ranks on all six and has nothing left to fill.
func planFor(by RankBy, k int) rankPlan {
	switch {
	case k < 0 || by == RankByAbsCorrelation:
		return planAll
	case by == RankByAbsInnerProduct:
		return planSizeIP
	default:
		return planSize
	}
}

// columnarView is the packed form of one index snapshot: its entries cut
// into runs, consecutive ranges packed apart, so that a rebuild copies
// only the runs whose entries changed. Packed table t is index entry t,
// whose sketches are views of its run's pack. The view is immutable after
// buildColumnarView returns; concurrent searches share it freely, and an
// unchanged run is shared by the views of successive snapshots.
type columnarView struct {
	runs []*packRun
	// start is a len(runs)+1 prefix-sum: run r holds entries
	// [start[r], start[r+1]).
	start []int
}

// packRun is one run: its entries' three packs, the bundles of views
// over them that its build put in the index, and its bands.
type packRun struct {
	pk columnarPack
	// colOff is a len(bundles)+1 prefix-sum: the run's table t has the
	// run-wide column ordinals [colOff[t], colOff[t+1]), in the entry's
	// sorted Columns() order (none for a table without value columns).
	colOff []int
	// bundles are the entries as the build left them, in run order; each
	// records this run, so a later build finds the run from its entries.
	bundles []TableSketch
	// bands is the run's banded view (BuildLSH), keyed by run-local entry
	// ordinal, or nil for a run packed without banding. Like the pack it
	// is built with the run and never changes, so an index that shares the
	// run shares its bands.
	bands *lsh.Index
}

// runLen is the mean length of a run, in entries, and maxRun its cap: an
// entry closes a run when a hash of its name hits 1 in runLen, or when
// the run reaches maxRun entries. The boundaries therefore depend only on
// the names, so inserting, replacing or removing one name moves only the
// run it falls in (and its neighbour when the name closes a run, or the
// runs up to the next hash boundary when its run was cut at the cap); the
// cap bounds what one run holds. DESIGN.md §12.3 has the measurements that
// chose runLen.
const (
	runLen = 8
	maxRun = 4 * runLen
)

// closesRun reports whether name ends a run. The hash is a Mix chain
// over the name's bytes, independent of the catalog's FNV shard stripe
// (every name of a shard shares that hash's low bits).
func closesRun(name string) bool {
	h := hashing.Mix(uint64(len(name)))
	for i := 0; i < len(name); i += 8 {
		var w uint64
		for j := i; j < min(i+8, len(name)); j++ {
			w |= uint64(name[j]) << (8 * (j - i))
		}
		h = hashing.Extend(h, w)
	}
	return h%runLen == 0
}

// runEnd returns the end of the run the boundary rule cuts at entries[lo].
func runEnd(entries []*TableSketch, lo int) int {
	hi := lo + 1
	for hi-lo < maxRun && hi < len(entries) && !closesRun(entries[hi-1].Name) {
		hi++
	}
	return hi
}

// heads reports whether r is the run the boundary rule cuts at the head
// of es: es begins with r's bundles, in order, and the rule ends the run
// where r ends. The rule reads only the run's own names, none of which
// closed it early when r was cut, so only its end needs checking: a run
// cut short by the end of its entries no longer ends there once an entry
// follows it.
func (r *packRun) heads(es []*TableSketch) bool {
	n := len(r.bundles)
	if len(es) < n {
		return false
	}
	for i := range r.bundles {
		if es[i] != &r.bundles[i] {
			return false
		}
	}
	return n == len(es) || n == maxRun || closesRun(es[n-1].Name)
}

// buildColumnarView cuts entries into runs and returns a fresh view over
// them with room for runs runs, or nil when there is nothing to pack (no
// entries, or a family without a pack). A run whose entries are the
// bundles an earlier build made for it is shared as it is; every other
// run is packed anew (packEntries), which replaces its entries with
// bundles of views over its pack and leaves the bundles it replaces as
// they were. With p set, every run is banded under p: a run is shared
// only when banded under p, and a build under invalid parameters or of a
// family without signatures fails. The entries share one configuration,
// so the family of the first is that of all.
func buildColumnarView(entries []*TableSketch, p *lsh.Params, runs int) (*columnarView, error) {
	var f columnarScorer
	if len(entries) > 0 {
		if be, err := backendFor(entries[0].key.method); err == nil {
			f = be.packs
		}
	}
	if f == nil {
		// Nothing to pack. Banding what there is still refuses invalid
		// parameters, and a family without a pack, which has no signature.
		_, err := bandEntries(entries, p)
		return nil, err
	}
	v := &columnarView{runs: make([]*packRun, 0, runs), start: make([]int, 1, runs+1)}
	for lo := 0; lo < len(entries); {
		r := entries[lo].run
		if r == nil || !r.heads(entries[lo:]) || p != nil && (r.bands == nil || r.bands.Params() != *p) {
			run := entries[lo:runEnd(entries, lo)]
			bands, err := bandEntries(run, p)
			if err != nil {
				return nil, err
			}
			r = packEntries(f, run)
			r.bands = bands
		}
		lo += len(r.bundles)
		v.runs = append(v.runs, r)
		v.start = append(v.start, lo)
	}
	return v, nil
}

// packEntries packs entries into a new run and replaces each entries[t]
// with the run's bundle t, of views over the pack. One walk over the
// entries collects the key, value and squared-value payloads; the
// family's pack then sizes each of its arrays once, from those payloads,
// so a rebuild allocates the run at its final size instead of growing it.
func packEntries(f columnarScorer, entries []*TableSketch) *packRun {
	var (
		keys      = make([]payload, 0, len(entries))
		vals, sqs []payload
		colOff    = make([]int, 1, len(entries)+1)
	)
	for _, e := range entries {
		keys = append(keys, e.key.payload)
		for i := range e.cols {
			vals = append(vals, e.val[i].payload)
			sqs = append(sqs, e.sqVal[i].payload)
		}
		colOff = append(colOff, len(vals))
	}
	r := &packRun{pk: f.pack(keys, vals, sqs), colOff: colOff, bundles: make([]TableSketch, len(entries))}
	// The new bundles' sketches, one allocation per kind.
	m := entries[0].key.method
	ks, vs, ss := wrap(m, keys), wrap(m, vals), wrap(m, sqs)
	for t, e := range entries {
		lo, hi := colOff[t], colOff[t+1]
		r.bundles[t] = TableSketch{Name: e.Name, keySpace: e.keySpace, key: ks[t],
			cols: e.cols, val: vs[lo:hi:hi], sqVal: ss[lo:hi:hi], run: r}
		entries[t] = &r.bundles[t]
	}
	return r
}

// wrap returns sketches of method m over ps: the pointers, and the
// sketches they point to, each in one allocation.
func wrap(m Method, ps []payload) []*Sketch {
	sks := make([]Sketch, len(ps))
	out := make([]*Sketch, len(ps))
	for i, p := range ps {
		sks[i] = Sketch{method: m, payload: p}
		out[i] = &sks[i]
	}
	return out
}

// sampled is a packed family's decoded sketch: a payload whose stored
// (tag, value) sample and aux word pack into a sample.Cols[T].
type sampled[T sample.Tag] interface {
	payload
	Sample() (tags []T, vals []float64, aux float64)
}

// scorer is a family's per-pair scorer: query sketch against one stored
// sample and its aux word.
type scorer[S sampled[T], T sample.Tag] func(q S, tags []T, vals []float64, aux float64) float64

// packFamily is everything family-specific about a columnar pack, and the
// one columnarScorer: the backend descriptor of each packed family holds
// one in its packs field. E is the decoded sketch type, S the pointer to
// it that is the payload, T its sample's tag.
type packFamily[E any, S interface {
	*E
	sampled[T]
}, T sample.Tag] struct {
	// score is the family's Score, the scorer its Estimate runs.
	score scorer[S, T]
	// joinSize, when set, is the family's dedicated |A∩B| scorer: the size
	// slot carries its estimate instead of the inner-product reduction, as
	// the decoded joinSize estimator does.
	joinSize scorer[S, T]
	// view is the family's View: a copy of a sketch's header over a
	// sample equal to its own, here the copy in the pack.
	view func(s S, tags []T, vals []float64) E
}

// pack is the one columnarPack implementation: three packed samples (key,
// value and squared-value sketches) of one configuration, and the
// family's scorers.
type pack[S sampled[T], T sample.Tag] struct {
	score, joinSize scorer[S, T]
	keys, vals, sqs sample.Cols[T]
}

// pack counts the pairs of each of the three packs, then sizes each
// sample.Cols exactly and copies the samples in: the same bytes, in the
// same order, as appending them one by one, in one allocation per array.
// It then replaces every payload with its view over the pack
// (sample.Cols.At caps each slice at its own pairs).
func (f *packFamily[E, S, T]) pack(keys, vals, sqs []payload) columnarPack {
	src := [3][]payload{keys, vals, sqs}
	var pairs [3]int
	for i, ps := range src {
		for _, p := range ps {
			tags, _, _ := p.(S).Sample()
			pairs[i] += len(tags)
		}
	}
	pk := &pack[S, T]{score: f.score, joinSize: f.joinSize}
	for i, c := range [3]*sample.Cols[T]{&pk.keys, &pk.vals, &pk.sqs} {
		*c = sample.MakeCols[T](len(src[i]), pairs[i])
		for _, p := range src[i] {
			c.Append(p.(S).Sample())
		}
		views := make([]E, len(src[i]))
		for j, p := range src[i] {
			tags, vals, _ := c.At(j)
			views[j] = f.view(p.(S), tags, vals)
			src[i][j] = S(&views[j])
		}
	}
	return pk
}

// scan runs the family's scorers over the packs the plan reads, each call
// with the consecutive query operands it needs, sliced from one bundle
// asserted once per call.
func (p *pack[S, T]) scan(q *[3]payload, pl rankPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64) {
	qs := [3]S{q[0].(S), q[1].(S), q[2].(S)}
	n := 1 // key-pack operands: the size, and under planAll ΣV_A and ΣV_A²
	if pl == planAll {
		n = 3
	}
	lo := 0
	if p.joinSize != nil {
		sample.Scan(&p.keys, qs[:1], tLo, tHi, tbl, rowWidth, slots[:1], p.joinSize)
		lo = 1
	}
	if lo < n {
		sample.Scan(&p.keys, qs[lo:n], tLo, tHi, tbl, rowWidth, slots[lo:n], p.score)
	}
	switch pl {
	case planSizeIP:
		sample.Scan(&p.vals, qs[1:2], cLo, cHi, col, rowWidth, slots[slotIP:slotIP+1], p.score)
	case planAll:
		sample.Scan(&p.vals, qs[:2], cLo, cHi, col, rowWidth, slots[:2], p.score)
		sample.Scan(&p.sqs, qs[:1], cLo, cHi, col, rowWidth, slots[slotSumSqB:], p.score)
	}
}

// BuildColumnar packs the index's entries into the columnar scan view, as
// Derive packs the index it derives, and returns the number of entries
// packed: all of them, or 0 when no view was built (an empty index or a
// family without a pack). Each entry is then replaced by a bundle of views
// over its run's pack, which holds the index's one copy of the samples;
// the bundles that were added keep their own arrays. Add invalidates the
// view; the next build shares every run whose entries are the bundles an
// earlier build made for it and packs the others, copying.
func (ix *SketchIndex) BuildColumnar() int {
	// A banded index stays banded. That cannot fail: Add drops the
	// banding, so these entries banded under it before.
	ix.view, _ = buildColumnarView(ix.entries, ix.bands, 0)
	if ix.view == nil {
		return 0
	}
	return len(ix.entries)
}

// ScanStats counts what one search's scan did, for observability: how
// many candidate columns were scored, how many the minJoinSize filter
// pruned, how the scoring split between the packed kernel and the
// decoded fallback, and where the search's wall time went.
type ScanStats struct {
	// Candidates is the number of candidate columns scored (the query's
	// own table is excluded before scoring).
	Candidates int64
	// Pruned counts scored candidates dropped by the minJoinSize filter.
	Pruned int64
	// Columnar and Fallback split Candidates by scoring path.
	Columnar int64
	Fallback int64

	// LSHProbes and LSHCandidates describe the banded candidate stage of
	// an lsh-mode search: how many bands were probed and how many
	// candidate entries the probes gathered before exact rescoring. Zero
	// on full scans.
	LSHProbes     int64
	LSHCandidates int64

	// Stage timings, in nanoseconds. ColumnarNanos and FallbackNanos are
	// CPU-additive (summed across the scan's parallel workers, so they
	// can exceed ScanNanos on multi-core scans) and accumulate through
	// Add. The wall-clock stages — SnapshotNanos (catalog shard-view
	// acquisition), ScanNanos (the rank-phase fan-out, start to join),
	// MergeNanos (the final heap merge and rank), and FillNanos (the
	// remaining estimates and JoinStats assembly of the final k results)
	// — are set by whichever coordinator ran the search and deliberately
	// NOT summed by Add: adding the wall times of concurrent scans would
	// double-count overlapping time.
	SnapshotNanos int64
	ScanNanos     int64
	ColumnarNanos int64
	FallbackNanos int64
	MergeNanos    int64
	FillNanos     int64
}

// Add accumulates o's counters and CPU-additive stage times into s (see
// the field comments for why the wall-clock stages are excluded).
func (s *ScanStats) Add(o ScanStats) {
	s.Candidates += o.Candidates
	s.Pruned += o.Pruned
	s.Columnar += o.Columnar
	s.Fallback += o.Fallback
	s.LSHProbes += o.LSHProbes
	s.LSHCandidates += o.LSHCandidates
	s.ColumnarNanos += o.ColumnarNanos
	s.FallbackNanos += o.FallbackNanos
}
