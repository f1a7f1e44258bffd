// Package lsh implements banded locality-sensitive hashing over MinHash
// signatures — the retrieval-side application the paper's related-work
// section points to (Gionis et al. 1999; "MinHash often outperforms
// SimHash for binary data", Shrivastava & Li 2014).
//
// A signature of length bands×rows is split into bands of rows entries;
// two items become candidates if any band matches exactly. For items with
// (weighted) Jaccard similarity J, each signature entry matches with
// probability J, so the retrieval probability is the classic S-curve
//
//	P(candidate) = 1 − (1 − J^rows)^bands,
//
// sharply separating pairs above the threshold J* ≈ (1/bands)^(1/rows)
// from pairs below it. Signatures come from minhash.Sketch.Signature or
// wmh.Sketch.Signature (unweighted vs weighted Jaccard).
//
// Queries support multi-probe budgets: probing only the first p ≤ bands
// bands costs proportionally fewer bucket lookups and retrieves with
// probability 1 − (1 − J^rows)^p — the recall-vs-probe-count knob the
// serving layer exposes per query.
package lsh

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/hashing"
)

// Params configures the banding scheme.
type Params struct {
	// Bands is the number of bands.
	Bands int
	// Rows is the number of signature entries per band.
	Rows int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Bands <= 0 || p.Rows <= 0 {
		return errors.New("lsh: bands and rows must be positive")
	}
	return nil
}

// SignatureLen returns the required signature length bands×rows.
func (p Params) SignatureLen() int { return p.Bands * p.Rows }

// Threshold returns the approximate similarity threshold of the S-curve,
// (1/bands)^(1/rows).
func (p Params) Threshold() float64 {
	return math.Pow(1/float64(p.Bands), 1/float64(p.Rows))
}

// RetrievalProbability returns the S-curve value 1 − (1 − J^rows)^probes
// for a pair of Jaccard similarity j when the first probes bands are
// probed (probes ≤ 0 or > Bands means every band).
func (p Params) RetrievalProbability(j float64, probes int) float64 {
	probes = p.ClampProbes(probes)
	return 1 - math.Pow(1-math.Pow(j, float64(p.Rows)), float64(probes))
}

// ClampProbes resolves a probe budget: values ≤ 0 or > Bands mean every
// band.
func (p Params) ClampProbes(probes int) int {
	if probes <= 0 || probes > p.Bands {
		return p.Bands
	}
	return probes
}

// Index is a banded LSH index over int-identified items: per band, the
// (band key, id) pairs sorted by key, then id, so a key that collides
// across bands never matches and a lookup is a binary search. An insert
// costs O(items). It is safe for concurrent reads once built.
type Index struct {
	params Params
	keys   [][]uint64 // per band: the items' band keys, ascending
	ids    [][]int    // per band: the id of each key
	// first holds, per band, bit Mix(v)%64 of every item's first entry v
	// of the band: a probe whose first entry's bit is clear matches no
	// item in the band, and is turned away before its key is hashed.
	first []uint64
}

// New returns an empty index.
func New(p Params) (*Index, error) { return NewSized(p, 0) }

// NewSized returns an empty index with room for n items in one key and
// one id array.
func NewSized(p Params, n int) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{params: p, keys: make([][]uint64, p.Bands), ids: make([][]int, p.Bands), first: make([]uint64, p.Bands)}
	keys, ids := make([]uint64, p.Bands*n), make([]int, p.Bands*n)
	for b := range p.Bands {
		ix.keys[b], ix.ids[b] = keys[b*n:b*n:(b+1)*n], ids[b*n:b*n:(b+1)*n]
	}
	return ix, nil
}

// Params returns the banding parameters.
func (ix *Index) Params() Params { return ix.params }

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.ids[0]) }

// Key hashes one band of the signature to its key: Mix(band, sig[lo:hi]...)
// chained incrementally, so the query path allocates nothing.
func (p Params) Key(band int, sig []uint64) uint64 {
	lo := band * p.Rows
	h := hashing.Mix(uint64(band))
	for _, v := range sig[lo : lo+p.Rows] {
		h = hashing.Extend(h, v)
	}
	return h
}

// Insert adds an item. Re-inserting an existing id is rejected (delete is
// intentionally unsupported: LSH catalogs are rebuild-oriented).
func (ix *Index) Insert(id int, signature []uint64) error {
	if len(signature) != ix.params.SignatureLen() {
		return fmt.Errorf("lsh: signature has %d entries, banding needs %d", len(signature), ix.params.SignatureLen())
	}
	if slices.Contains(ix.ids[0], id) {
		return fmt.Errorf("lsh: id %d already indexed", id)
	}
	for b := range ix.keys {
		k := ix.params.Key(b, signature)
		keys, ids := append(ix.keys[b], k), append(ix.ids[b], id)
		i := len(keys) - 1
		for ; i > 0 && (keys[i-1] > k || keys[i-1] == k && ids[i-1] > id); i-- {
			keys[i], ids[i] = keys[i-1], ids[i-1]
		}
		keys[i], ids[i] = k, id
		ix.keys[b], ix.ids[b] = keys, ids
		ix.first[b] |= 1 << (hashing.Mix(signature[b*ix.params.Rows]) % 64)
	}
	return nil
}

// Probe calls hit with the id of each item sharing one of the first probes
// bands (≤ 0 or > Bands: every band) with the signature, once per band.
func (ix *Index) Probe(signature []uint64, probes int, hit func(id int)) {
	for b := range ix.params.ClampProbes(probes) {
		if ix.first[b]&(1<<(hashing.Mix(signature[b*ix.params.Rows])%64)) == 0 {
			continue
		}
		k, keys := ix.params.Key(b, signature), ix.keys[b]
		for i, _ := slices.BinarySearch(keys, k); i < len(keys) && keys[i] == k; i++ {
			hit(ix.ids[b][i])
		}
	}
}

// Querier owns the output slice of a candidate lookup, so repeated
// queries against an index allocate nothing in the steady state. A
// Querier is single-goroutine; concurrent searchers each hold their own.
type Querier struct {
	ix  *Index
	out []int
}

// NewQuerier returns a reusable lookup scratch bound to the index.
func (ix *Index) NewQuerier() *Querier { return &Querier{ix: ix} }

// Candidates returns the ids sharing at least one of the first probes
// bands (≤ 0 or > Bands: every band) with the query signature, ascending
// and deduplicated, in a slice the Querier reuses at its next query.
func (q *Querier) Candidates(signature []uint64, probes int) ([]int, error) {
	if n := q.ix.params.SignatureLen(); len(signature) != n {
		return nil, fmt.Errorf("lsh: signature has %d entries, banding needs %d", len(signature), n)
	}
	q.out = q.out[:0]
	q.ix.Probe(signature, probes, func(id int) { q.out = append(q.out, id) })
	slices.Sort(q.out)
	q.out = slices.Compact(q.out)
	return q.out, nil
}
