package ipsketch

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/lsh"
)

// This file is the sublinear candidate path of SketchIndex: BuildLSH
// bands every entry's key-sketch signature into an internal/lsh index at
// the same time the columnar view is built (the catalog does both per
// copy-on-write publish), and a Query with LSH set gathers band candidates
// for the query and runs SearchIndexes' scoring routine over only those
// entries — the same kernels, heap, and (score, ent, col) tie-break order
// as the full scan. Whenever the candidate set contains the true top k
// (recall@k = 1) the ranking is therefore bit-identical to the full scan —
// approximation only ever drops candidates, it never perturbs a score. An
// empty query sketch yields zero band candidates.

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
// banded (longer signatures are truncated to the first Bands×Rows
// entries).
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
func (sk *Sketch) LSHSignature() ([]uint64, error) {
	if sk == nil {
		return nil, errNilSketch
	}
	be, err := backendFor(sk.method)
	if err != nil {
		return nil, err
	}
	if be.signature == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSignature, sk.method)
	}
	return be.signature(sk.payload)
}

// ErrNoLSHIndex reports an lsh-mode search against an index that has no
// banded view (BuildLSH was never run, or mutation invalidated it).
var ErrNoLSHIndex = errors.New("ipsketch: index has no LSH view")

// lshView is the banded candidate index of one snapshot, keyed by entry
// position. Immutable after buildLSHView; concurrent searches share it,
// each holding its own lsh.Querier.
type lshView struct {
	params lsh.Params
	index  *lsh.Index
}

// BuildLSH bands the index's entries into an LSH candidate view and
// returns the number of entries indexed. The catalog calls this at every
// copy-on-write publish, right after BuildColumnar; Add invalidates the
// view (lsh-mode searches fail with ErrNoLSHIndex until the next build).
// The index holds one configuration, so either every entry can be banded
// or none can: BuildLSH fails when the method has no signature or its
// signatures are shorter than p.SignatureLen(). Entries with empty key
// sketches are skipped: an empty key column joins nothing and must not
// wildcard-match every query.
func (ix *SketchIndex) BuildLSH(p LSHParams) (int, error) {
	lv, err := buildLSHView(ix.entries, p.internal())
	if err != nil {
		return 0, err
	}
	ix.lshView = lv
	return lv.index.Len(), nil
}

// HasLSH reports whether the index currently holds a banded view.
func (ix *SketchIndex) HasLSH() bool { return ix.lshView != nil }

// LSHParams returns the banding parameters of the current view, if any.
func (ix *SketchIndex) LSHParams() (LSHParams, bool) {
	if ix.lshView == nil {
		return LSHParams{}, false
	}
	return LSHParams{Bands: ix.lshView.params.Bands, Rows: ix.lshView.params.Rows}, true
}

func buildLSHView(entries []*TableSketch, p lsh.Params) (*lshView, error) {
	index, err := lsh.New(p)
	if err != nil {
		return nil, err
	}
	lv := &lshView{params: p, index: index}
	sigLen := p.SignatureLen()
	for ent, e := range entries {
		sig, err := e.key.LSHSignature()
		if err != nil {
			return nil, fmt.Errorf("ipsketch: banding %s: %w", e.Name, err)
		}
		if sig == nil {
			// Empty key sketch: joins nothing, bands nothing. Skipped, per
			// the empty-signature contract.
			continue
		}
		if len(sig) < sigLen {
			return nil, fmt.Errorf("ipsketch: banding %s: signature has %d entries, banding needs %d", e.Name, len(sig), sigLen)
		}
		if err := index.Insert(ent, sig[:sigLen]); err != nil {
			return nil, fmt.Errorf("ipsketch: banding entry %d (%s): %w", ent, e.Name, err)
		}
	}
	return lv, nil
}

// SearchTopKLSHStats is Search of an lsh-mode query.
//
// Deprecated: use Search. It stays only until the benchmark harness moves
// onto Search (ROADMAP.md item 4(a)).
func (ix *SketchIndex) SearchTopKLSHStats(query *TableSketch, queryCol string, by RankBy, minJoinSize float64, k, probes int) ([]SearchResult, ScanStats, error) {
	return ix.Search(Query{Sketch: query, Column: queryCol, RankBy: by, MinJoinSize: minJoinSize, K: k, LSH: true, Probes: probes})
}

// gather builds the source's lsh scan list: the band candidates of qsig,
// ascending, so unit cuts and tie-breaking see entry positions in
// full-scan order. A nil signature (empty key sketch) matches nothing.
func (src *searchSource) gather(qsig []uint64, probes int, stats *ScanStats) error {
	if qsig == nil {
		src.ents, src.n = nil, 0
		return nil
	}
	lv := src.ix.lshView
	sigLen := lv.params.SignatureLen()
	stats.LSHProbes += int64(lv.params.ClampProbes(probes))
	if len(qsig) < sigLen {
		return fmt.Errorf("ipsketch: lsh search: query signature has %d entries, banding needs %d", len(qsig), sigLen)
	}
	cands, err := lv.index.NewQuerier().Candidates(qsig[:sigLen], probes)
	if err != nil {
		return fmt.Errorf("ipsketch: lsh search: %w", err)
	}
	// Owned: the Querier is local and issues no further queries.
	sort.Ints(cands)
	stats.LSHCandidates += int64(len(cands))
	src.ents, src.n = cands, len(cands)
	return nil
}
