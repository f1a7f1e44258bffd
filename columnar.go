package ipsketch

import "sort"

// This file is the structure-of-arrays scan path of SketchIndex: at build
// time every packable entry's sketch bundle is appended to one
// family-specific columnar pack (contiguous hash/value arrays plus
// per-sketch aux words), and at search time the pre-decoded query streams
// those flat arrays with zero per-candidate decoding, map lookups, or
// interface dispatch — the numba-kernel shape of the related sampling
// repos, specialized per family behind the columnarScorer capability.
// Entries the pack rejects (different method, key space, or construction
// parameters) transparently stay on the decoded EstimateJoinStats path,
// and both paths assemble JoinStats through the same helper, so rankings
// are bit-identical either way.

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

// packSel is the part of an estPlan one pack runs: n query operands
// (indices into the bundle's key, value, squared-value order) and the
// output slot each fills.
type packSel struct {
	n   int
	op  [3]int
	off [3]int
}

func (s *packSel) add(op, off int) {
	s.op[s.n], s.off[s.n] = op, off
	s.n++
}

// pick gathers the selected operands of q into buf for a kernel call.
func pick[Q any](s *packSel, q *[3]Q, buf *[3]Q) []Q {
	for i := 0; i < s.n; i++ {
		buf[i] = q[s.op[i]]
	}
	return buf[:s.n]
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

// columnarView is the packed form of one index snapshot. It is immutable
// after buildColumnarView returns; concurrent searches share it freely.
type columnarView struct {
	method   Method
	keySpace uint64
	pk       columnarPack
	// ents lists the packed entry positions in ascending scan order;
	// packed table t corresponds to index entry ents[t].
	ents []int
	// colOff is a len(ents)+1 prefix-sum: packed table t's columns occupy
	// pack-wide column ordinals [colOff[t], colOff[t+1]), in the entry's
	// sorted Columns() order.
	colOff []int
	// packed flags every index entry position the pack accepted, so the
	// fallback loop can skip them.
	packed []bool
}

// buildColumnarView packs entries into a fresh view, or returns nil when
// nothing is packable. The family is chosen by the first entry whose
// backend implements columnarScorer; entries of other methods (or
// incompatible parameters) stay decoded.
func buildColumnarView(entries []*TableSketch) *columnarView {
	var v *columnarView
	for ent, e := range entries {
		if e == nil || e.key == nil || e.key.payload == nil {
			continue
		}
		cols := e.Columns()
		if len(cols) == 0 {
			continue // nothing to score; keep it off the pack
		}
		if v == nil {
			be, err := backendFor(e.key.method)
			if err != nil {
				continue
			}
			cs, ok := be.(columnarScorer)
			if !ok {
				continue
			}
			v = &columnarView{
				method:   e.key.method,
				keySpace: e.keySpace,
				pk:       cs.newColumnarPack(),
				colOff:   []int{0},
				packed:   make([]bool, len(entries)),
			}
		}
		if e.key.method != v.method || e.keySpace != v.keySpace {
			continue
		}
		vals := make([]payload, 0, len(cols))
		sqs := make([]payload, 0, len(cols))
		ok := true
		for _, c := range cols {
			vsk, ssk := e.val[c], e.sqVal[c]
			if vsk == nil || ssk == nil ||
				vsk.method != v.method || ssk.method != v.method ||
				vsk.payload == nil || ssk.payload == nil {
				ok = false
				break
			}
			vals = append(vals, vsk.payload)
			sqs = append(sqs, ssk.payload)
		}
		if !ok || !v.pk.addTable(e.key.payload, vals, sqs) {
			continue
		}
		v.ents = append(v.ents, ent)
		v.colOff = append(v.colOff, v.colOff[len(v.colOff)-1]+len(cols))
		v.packed[ent] = true
	}
	if v == nil || len(v.ents) == 0 {
		return nil
	}
	return v
}

// prepareColumnarQuery pre-decodes the query column's bundle for the
// packed path, once per search. nil means the query cannot use it
// (missing column, mixed or unpackable methods) and every index scans
// decoded — including the decoded scorer's error semantics, which is why
// this never errors.
func prepareColumnarQuery(query *TableSketch, queryCol string) columnarQuery {
	if query.key == nil || query.key.payload == nil {
		return nil
	}
	qVal, qSq := query.val[queryCol], query.sqVal[queryCol]
	if qVal == nil || qSq == nil || qVal.payload == nil || qSq.payload == nil {
		return nil
	}
	m := query.key.method
	if qVal.method != m || qSq.method != m {
		return nil
	}
	be, err := backendFor(m)
	if err != nil {
		return nil
	}
	cs, ok := be.(columnarScorer)
	if !ok {
		return nil
	}
	return cs.prepareQuery(query.key.payload, qVal.payload, qSq.payload)
}

// accepts reports whether the prepared query can be scored against this
// view's pack (same key space, family and construction parameters).
func (v *columnarView) accepts(query *TableSketch, q columnarQuery) bool {
	return q != nil && query.keySpace == v.keySpace && query.key.method == v.method && v.pk.accepts(q)
}

// tableRange maps an entry range [lo, hi) to the packed table range whose
// entries fall inside it.
func (v *columnarView) tableRange(lo, hi int) (tLo, tHi int) {
	return sort.SearchInts(v.ents, lo), sort.SearchInts(v.ents, hi)
}

// BuildColumnar packs the index's entries into the columnar scan view and
// returns the number of entries packed. The catalog calls this once per
// copy-on-write publish, so every reader scans packed; library users call
// it after loading a static index. Add and Remove invalidate the view
// (searches fall back to the decoded scorer until the next build).
func (ix *SketchIndex) BuildColumnar() int {
	ix.view = buildColumnarView(ix.entries)
	if ix.view == nil {
		return 0
	}
	return len(ix.view.ents)
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
