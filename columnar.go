package ipsketch

import "repro/internal/sample"

// This file is the structure-of-arrays scan path of SketchIndex: at build
// time every entry's sketch bundle is copied into one family-specific
// columnar pack (three internal/sample layouts: flat tag/value arrays plus
// one aux word per sketch), and at search time the query bundle streams
// those arrays with zero per-candidate decoding, map lookups, or interface
// dispatch — the numba-kernel shape of the related sampling repos,
// specialized per family behind the backend descriptor's packs field. A
// view covers every entry of its index: the index pins one configuration,
// so either every entry packs (a packed family) or none does (JL, CS and
// SimHash scan decoded through EstimateJoinStats). Both paths run each
// family's one match loop and assemble JoinStats through the same helper,
// so rankings are bit-identical either way.

// The six raw pairwise estimates JoinStats is assembled from, ordered by
// the pack they scan — three query operands against the key sketches, two
// against the value sketches, one against the squared-value sketches —
// which is the order estPlan lays rows out in.
const (
	slotSize   = iota // qKey vs key: join size
	slotSumA          // qVal vs key: Σ V_A
	slotSumSqA        // qSq vs key: Σ V_A²
	slotSumB          // qKey vs value: Σ V_B
	slotIP            // qVal vs value: ⟨V_A, V_B⟩
	slotSumSqB        // qKey vs squared value: Σ V_B²
)

// estSet names a subset of the six estimates, one bit per slot.
type estSet uint8

const estAll estSet = 1<<(slotSumSqB+1) - 1

// rankEstimates returns the estimates the rank phase of a search reads:
// the minJoinSize filter always reads the size, and the score reads the
// size, the inner product, or (for the correlation) all six. An unbounded
// search keeps every candidate, so it ranks on all six and has nothing
// left to fill.
func rankEstimates(by RankBy, k int) estSet {
	switch {
	case k < 0 || by == RankByAbsCorrelation:
		return estAll
	case by == RankByAbsInnerProduct:
		return 1<<slotSize | 1<<slotIP
	default:
		return 1 << slotSize
	}
}

// packSel is the part of an estPlan one pack runs: the n consecutive query
// operands [lo, lo+n) of the bundle's key, value, squared-value order, and
// the output slot each fills. Every plan a search builds (rankEstimates and
// its complement) selects consecutive operands per pack, so a kernel call
// takes a sub-slice of the prepared query instead of a gathered copy; add
// panics on a selection that would not be one.
type packSel struct {
	lo, n int
	off   [3]int
}

func (s *packSel) add(op, off int) {
	if s.n == 0 {
		s.lo = op
	} else if op != s.lo+s.n {
		panic("ipsketch: estimate plan selects non-consecutive query operands")
	}
	s.off[s.n] = off
	s.n++
}

// estPlan lays out one subset of the six estimates as compact strided
// rows — table rows hold the wanted key-pack estimates, column rows the
// wanted value- and squared-value-pack ones — so scratch is sized for
// what a phase computes (one float per table when ranking by join size).
type estPlan struct {
	want                 estSet
	tblStride, colStride int
	slot                 [6]int // row slot of each estimate, −1 when not wanted
	key, val, sq         packSel
}

func newEstPlan(want estSet) estPlan {
	pl := estPlan{want: want}
	for e := range pl.slot {
		pl.slot[e] = -1
		if want&(1<<e) == 0 {
			continue
		}
		switch {
		case e <= slotSumSqA:
			pl.slot[e] = pl.tblStride
			pl.key.add(e, pl.tblStride)
			pl.tblStride++
		case e <= slotIP:
			pl.slot[e] = pl.colStride
			pl.val.add(e-slotSumB, pl.colStride)
			pl.colStride++
		default:
			pl.slot[e] = pl.colStride
			pl.sq.add(0, pl.colStride)
			pl.colStride++
		}
	}
	return pl
}

// columnarView is the packed form of one index snapshot: packed table t is
// index entry t. It is immutable after buildColumnarView returns;
// concurrent searches share it freely.
type columnarView struct {
	pk columnarPack
	// colOff is a len(entries)+1 prefix-sum: entry t's columns occupy
	// pack-wide column ordinals [colOff[t], colOff[t+1]), in the entry's
	// sorted Columns() order (none for a table without value columns).
	colOff []int
}

// buildColumnarView packs entries into a fresh view, or returns nil when
// there is nothing to pack (no entries, or a family without a pack). The
// entries share one configuration (SketchIndex.Add pins it), so the family
// of the first is that of all. One walk over the entries collects the
// key, value and squared-value payloads; the family's pack then sizes each
// of its arrays once, from those payloads, so a publish allocates the pack
// at its final size instead of growing it.
func buildColumnarView(entries []*TableSketch) *columnarView {
	if len(entries) == 0 {
		return nil
	}
	be, err := backendFor(entries[0].key.method)
	if err != nil || be.packs == nil {
		return nil
	}
	var (
		keys      = make([]payload, 0, len(entries))
		vals, sqs []payload
		colOff    = make([]int, 1, len(entries)+1)
	)
	for _, e := range entries {
		keys = append(keys, e.key.payload)
		for _, c := range e.Columns() {
			vals = append(vals, e.val[c].payload)
			sqs = append(sqs, e.sqVal[c].payload)
		}
		colOff = append(colOff, len(vals))
	}
	return &columnarView{pk: be.packs.pack(keys, vals, sqs), colOff: colOff}
}

// prepareColumnarQuery gathers the query column's bundle for the packed
// path, once per search. The search has checked that the query carries
// the column and shares the packed indexes' configuration.
func prepareColumnarQuery(query *TableSketch, queryCol string) columnarQuery {
	be, _ := backendFor(query.key.method)
	return be.packs.prepareQuery(query.key.payload, query.val[queryCol].payload, query.sqVal[queryCol].payload)
}

// sampled is a packed family's decoded sketch: a payload whose stored
// (tag, value) sample and aux word pack into a sample.Cols[T].
type sampled[T sample.Tag] interface {
	payload
	Sample() (tags []T, vals []float64, aux float64)
}

// packFamily is everything family-specific about a columnar pack, and the
// one columnarScorer: the backend descriptor of each packed family holds
// one in its packs field. S is the decoded sketch, T its sample's tag.
type packFamily[S sampled[T], T sample.Tag] struct {
	// scan is the family's Scan over packed samples.
	scan func(c *sample.Cols[T], qs []S, lo, hi int, out []float64, stride int, offs []int)
	// scanJoinSize, when set, is the family's dedicated |A∩B| kernel: the
	// size slot carries its estimate instead of the inner-product
	// reduction, as the decoded joinSize estimator does.
	scanJoinSize func(c *sample.Cols[T], q S, lo, hi int, out []float64, stride, off int)
}

// pack is the one columnarPack implementation: three packed samples (key,
// value and squared-value sketches) of one configuration.
type pack[S sampled[T], T sample.Tag] struct {
	fam             *packFamily[S, T]
	keys, vals, sqs sample.Cols[T]
}

// packQuery is a family's query bundle: the key, value and squared-value
// sketches the kernels take.
type packQuery[S any] [3]S

func (f *packFamily[S, T]) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	return &packQuery[S]{qKey.(S), qVal.(S), qSq.(S)}
}

// pack counts the pairs of each of the three packs, then sizes each
// sample.Cols exactly and copies the samples in: the same bytes, in the
// same order, as appending them one by one, in one allocation per array.
func (f *packFamily[S, T]) pack(keys, vals, sqs []payload) columnarPack {
	src := [3][]payload{keys, vals, sqs}
	var pairs [3]int
	for i, ps := range src {
		for _, p := range ps {
			tags, _, _ := p.(S).Sample()
			pairs[i] += len(tags)
		}
	}
	pk := &pack[S, T]{fam: f}
	for i, c := range [3]*sample.Cols[T]{&pk.keys, &pk.vals, &pk.sqs} {
		*c = sample.MakeCols[T](len(src[i]), pairs[i])
		for _, p := range src[i] {
			c.Append(p.(S).Sample())
		}
	}
	return pk
}

func (p *pack[S, T]) scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64) {
	ops := q.(*packQuery[S])
	if sel := &pl.key; sel.n > 0 {
		qs, offs := ops[sel.lo:sel.lo+sel.n], sel.off[:sel.n]
		// The size is the key pack's first selected operand whenever the
		// plan wants it.
		if p.fam.scanJoinSize != nil && pl.slot[slotSize] >= 0 {
			p.fam.scanJoinSize(&p.keys, qs[0], tLo, tHi, tbl, pl.tblStride, offs[0])
			qs, offs = qs[1:], offs[1:]
		}
		if len(qs) > 0 {
			p.fam.scan(&p.keys, qs, tLo, tHi, tbl, pl.tblStride, offs)
		}
	}
	if sel := &pl.val; sel.n > 0 {
		p.fam.scan(&p.vals, ops[sel.lo:sel.lo+sel.n], cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
	if sel := &pl.sq; sel.n > 0 {
		p.fam.scan(&p.sqs, ops[sel.lo:sel.lo+sel.n], cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
}

// BuildColumnar packs the index's entries into the columnar scan view and
// returns the number of entries packed: all of them, or 0 when no view
// was built (an empty index or a family without a pack). The catalog
// calls this once per copy-on-write publish, so every reader scans packed;
// library users call it after loading a static index. Add invalidates the
// view (searches take the decoded scorer until the next build).
func (ix *SketchIndex) BuildColumnar() int {
	ix.view = buildColumnarView(ix.entries)
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
