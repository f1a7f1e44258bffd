package ipsketch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/lsh"
)

// This file is the sublinear candidate path of SketchIndex: BuildLSH
// bands each run's key-sketch signatures into internal/lsh bands packed
// with the run (a publish bands only the runs it packs), and a Query with
// LSH set gathers band candidates for the query and runs SearchIndexes'
// scoring routine over only those entries — the same kernels, heap, and
// (score, ent, col) tie-break order as the full scan. Whenever the
// candidate set contains the true top k (recall@k = 1) the ranking is
// therefore bit-identical to the full scan — approximation only ever
// drops candidates, it never perturbs a score. An empty query sketch
// yields zero band candidates.

// LSHParams configures the banded candidate index: signatures of length
// Bands×Rows are split into Bands bands of Rows entries, and two columns
// become candidates when any band matches exactly. See internal/lsh for
// the S-curve analysis.
type LSHParams struct {
	Bands int
	Rows  int
}

// Validate reports whether the parameters are usable.
func (p LSHParams) Validate() error { return p.internal().Validate() }

// SignatureLen returns the required signature length Bands×Rows. The
// sketch's sample count M must be at least this for its columns to be
// banded (banding reads only the first Bands×Rows entries of a longer
// one).
func (p LSHParams) SignatureLen() int { return p.internal().SignatureLen() }

// Threshold returns the approximate Jaccard threshold of the banding
// S-curve, (1/Bands)^(1/Rows).
func (p LSHParams) Threshold() float64 { return p.internal().Threshold() }

// RetrievalProbability returns 1 − (1 − j^Rows)^probes, the probability
// that a pair of (weighted) Jaccard similarity j becomes a candidate when
// the first probes bands are probed (probes ≤ 0 or > Bands means all).
func (p LSHParams) RetrievalProbability(j float64, probes int) float64 {
	return p.internal().RetrievalProbability(j, probes)
}

func (p LSHParams) internal() lsh.Params { return lsh.Params{Bands: p.Bands, Rows: p.Rows} }

// ErrNoSignature reports that a sketch's method cannot produce an LSH
// signature (its samples are not minwise, so entry collisions carry no
// similarity semantics).
var ErrNoSignature = errors.New("ipsketch: method has no LSH signature")

// LSHSignature returns the sketch's banding signature: per-sample minima
// whose entries collide across two sketches of the same configuration
// with probability equal to the (weighted) Jaccard similarity, the input
// contract of internal/lsh. Supported by MethodMH and MethodWMH (all
// variants). An empty sketch returns (nil, nil) — empty columns cannot be
// banded and must be skipped by indexers, not treated as wildcards.
func (sk *Sketch) LSHSignature() ([]uint64, error) { return sk.appendLSHSignature(nil, math.MaxInt) }

// appendLSHSignature appends the first n entries of the signature (all of
// them when n exceeds its length; nothing for an empty sketch) to dst, so
// that banding reuses one buffer and converts only what its bands read.
func (sk *Sketch) appendLSHSignature(dst []uint64, n int) ([]uint64, error) {
	if sk == nil {
		return dst, errNilSketch
	}
	be, err := backendFor(sk.method)
	if err != nil {
		return dst, err
	}
	if be.signature == nil {
		return dst, fmt.Errorf("%w: %v", ErrNoSignature, sk.method)
	}
	return be.signature(dst, sk.payload, n)
}

// ErrNoLSHIndex reports an lsh-mode search against an index that has no
// banded view (BuildLSH was never run, or mutation invalidated it).
var ErrNoLSHIndex = errors.New("ipsketch: index has no LSH view")

// BuildLSH bands the index's entries into an LSH candidate view and
// returns the number of entries indexed. The bands live with the runs of
// the columnar view, which BuildLSH builds: a run banded under p is
// shared, and every other run is packed and banded anew. Add invalidates
// the view; Derive bands the index it derives the same way. The index
// holds one configuration, so BuildLSH fails when the parameters are
// invalid, the method has no signature, or its signatures are shorter
// than p.SignatureLen(). Entries with empty key sketches are skipped: an
// empty key column joins nothing and must not wildcard-match every query.
func (ix *SketchIndex) BuildLSH(p LSHParams) (int, error) {
	lp := p.internal()
	v, err := buildColumnarView(ix.entries, &lp, 0)
	if err != nil {
		return 0, err
	}
	ix.view, ix.bands = v, &lp
	n := 0
	for i := 0; v != nil && i < len(v.runs); i++ {
		n += v.runs[i].bands.Len()
	}
	return n, nil
}

// HasLSH reports whether the index currently holds a banded view.
func (ix *SketchIndex) HasLSH() bool { return ix.bands != nil }

// LSHParams returns the banding parameters of the current view, if any.
func (ix *SketchIndex) LSHParams() (LSHParams, bool) {
	if ix.bands == nil {
		return LSHParams{}, false
	}
	return LSHParams{Bands: ix.bands.Bands, Rows: ix.bands.Rows}, true
}

// bandEntries bands one run's entries under p, keyed by their ordinal in
// the run, or returns nil when p is nil.
func bandEntries(entries []*TableSketch, p *lsh.Params) (*lsh.Index, error) {
	if p == nil {
		return nil, nil
	}
	bands, err := lsh.NewSized(*p, len(entries))
	if err != nil {
		return nil, err
	}
	var sig []uint64
	for t, e := range entries {
		// An empty key sketch has no signature: it bands nothing.
		if sig, err = e.key.appendLSHSignature(sig[:0], p.SignatureLen()); err == nil && len(sig) > 0 {
			err = bands.Insert(t, sig)
		}
		if err != nil {
			return nil, fmt.Errorf("ipsketch: banding %s: %w", e.Name, err)
		}
	}
	return bands, nil
}

// SearchTopKLSHStats is Search of an lsh-mode query.
//
// Deprecated: use Search. It stays only until the benchmark harness moves
// onto Search (ROADMAP.md item 4(a)).
func (ix *SketchIndex) SearchTopKLSHStats(query *TableSketch, queryCol string, by RankBy, minJoinSize float64, k, probes int) ([]SearchResult, ScanStats, error) {
	return ix.Search(Query{Sketch: query, Column: queryCol, RankBy: by, MinJoinSize: minJoinSize, K: k, LSH: true, Probes: probes})
}

const _ uint = 64 - maxRun // a run's ordinals fit one uint64 mask of hits

// gather builds the source's lsh scan list: the entries sharing one of the
// probed bands with qsig, ascending (full-scan order), from a mask of hits
// per run. A nil signature (empty key sketch) matches nothing.
func (s *searcher) gather(src *searchSource, qsig []uint64, stats *ScanStats) error {
	src.ents, src.n = nil, 0
	if qsig == nil {
		return nil
	}
	p := *src.ix.bands
	stats.LSHProbes += int64(p.ClampProbes(s.Probes))
	if len(qsig) < p.SignatureLen() {
		return fmt.Errorf("ipsketch: lsh search: query signature has %d entries, banding needs %d", len(qsig), p.SignatureLen())
	}
	lo, v := len(s.cands), src.view
	for ri := 0; v != nil && ri < len(v.runs); ri++ {
		var hits uint64
		v.runs[ri].bands.Probe(qsig, s.Probes, func(t int) { hits |= 1 << t })
		for ; hits != 0; hits &= hits - 1 {
			s.cands = append(s.cands, v.start[ri]+bits.TrailingZeros64(hits))
		}
	}
	src.ents, src.n = s.cands[lo:len(s.cands):len(s.cands)], len(s.cands)-lo
	stats.LSHCandidates += int64(src.n)
	return nil
}
