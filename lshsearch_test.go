package ipsketch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// lshFamilies lists every family whose sketches carry an LSH signature.
var lshFamilies = []struct {
	name string
	cfg  Config
}{
	{"MH", Config{Method: MethodMH, StorageWords: 300, Seed: 21}},
	{"WMH", Config{Method: MethodWMH, StorageWords: 300, Seed: 22}},
}

// strongLSH bands aggressively (threshold (1/64)^1 ≈ 0.016) so on the
// seeded fixtures every overlapping candidate is retrieved and recall@k
// is 1 — the regime where lsh-mode rankings must be bit-identical.
var strongLSH = LSHParams{Bands: 64, Rows: 1}

func searchKeySet(res []SearchResult) map[string]bool {
	s := make(map[string]bool, len(res))
	for _, r := range res {
		s[r.Table+"\x00"+r.Column] = true
	}
	return s
}

// TestLSHSearchBitExactAtRecallOne: with full probes and aggressive
// banding the candidate set contains the true top k, and the lsh-mode
// ranking must be bit-identical (Float64bits, via resultsIdentical) to
// the full scan — whether BuildLSH packs the index itself (columnar=false
// drops the view first) or bands the runs of a view packed before.
func TestLSHSearchBitExactAtRecallOne(t *testing.T) {
	for _, fam := range lshFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			qSk, ix := buildColumnarFixture(t, fam.cfg, 2000+fam.cfg.Seed, 18)
			for _, columnar := range []bool{false, true} {
				if columnar {
					if packed := ix.BuildColumnar(); packed != ix.Len() {
						t.Fatalf("packed %d of %d entries", packed, ix.Len())
					}
				} else {
					ix.view = nil
				}
				if _, err := ix.BuildLSH(strongLSH); err != nil {
					t.Fatal(err)
				}
				for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
					for _, k := range []int{1, 5, 10} {
						full, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: k})
						if err != nil {
							t.Fatal(err)
						}
						got, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: k, LSH: true})
						if err != nil {
							t.Fatal(err)
						}
						if stats.LSHProbes != int64(strongLSH.Bands) {
							t.Fatalf("LSHProbes = %d, want %d", stats.LSHProbes, strongLSH.Bands)
						}
						if stats.LSHCandidates == 0 {
							t.Fatal("no band candidates on an overlapping corpus")
						}
						gotKeys, fullKeys := searchKeySet(got), searchKeySet(full)
						recall := 0
						for key := range fullKeys {
							if gotKeys[key] {
								recall++
							}
						}
						if recall != len(full) {
							t.Fatalf("columnar=%v by=%d k=%d: recall %d/%d under aggressive banding",
								columnar, by, k, recall, len(full))
						}
						if len(got) != len(full) {
							t.Fatalf("columnar=%v by=%d k=%d: %d results, want %d", columnar, by, k, len(got), len(full))
						}
						for i := range got {
							if !resultsIdentical(got[i], full[i]) {
								t.Fatalf("columnar=%v by=%d k=%d: result %d differs:\nlsh  %+v\nfull %+v",
									columnar, by, k, i, got[i], full[i])
							}
						}
					}
				}
			}
		})
	}
}

// bandOracle returns the names of ix's entries that share one of the
// first probes bands (≤ 0: all) of p with the query's key sketch, row for
// row, comparing signatures with no hashing: the entries an lsh-mode
// search must gather. Entries with empty key sketches match nothing.
func bandOracle(t testing.TB, ix *SketchIndex, q *TableSketch, p LSHParams, probes int) []string {
	t.Helper()
	qsig, err := q.KeySketch().LSHSignature()
	if err != nil {
		t.Fatal(err)
	}
	if probes <= 0 || probes > p.Bands {
		probes = p.Bands
	}
	var out []string
	for _, name := range ix.Tables() {
		e, _ := ix.Get(name)
		sig, err := e.KeySketch().LSHSignature()
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < probes && sig != nil && qsig != nil; b++ {
			if slices.Equal(sig[b*p.Rows:(b+1)*p.Rows], qsig[b*p.Rows:(b+1)*p.Rows]) {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// decodedSubset returns a fresh index of the named entries of ix that
// packs nothing, so its searches take the decoded scorer.
func decodedSubset(t testing.TB, ix *SketchIndex, names []string) *SketchIndex {
	t.Helper()
	sub := NewSketchIndex()
	for _, name := range names {
		e, _ := ix.Get(name)
		if err := sub.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

// TestLSHSearchTieHeavyEquivalence: on a corpus built to tie, the packed
// lsh rescore (rank over the candidates, fill the final k) must match a
// decoded full scan of exactly the band oracle's candidates bit for bit —
// results and scan counters — for every RankBy, k shape and minJoinSize
// around the tie value; and with aggressive banding and a positive
// minJoinSize (so the full scan's size ≤ 0 tail, which banding never
// retrieves, is pruned there too) it must match the full scan.
func TestLSHSearchTieHeavyEquivalence(t *testing.T) {
	for _, fam := range lshFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			qSk, ix := buildTieFixture(t, fam.cfg, 2500+fam.cfg.Seed)
			all, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.BuildLSH(strongLSH); err != nil {
				t.Fatal(err)
			}
			cands := bandOracle(t, ix, qSk, strongLSH, 0)
			ref := decodedSubset(t, ix, cands)
			n := len(all)
			for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
				for _, minJoin := range tieMinJoins(all) {
					for _, k := range []int{1, 7, n, n + 5, -1} {
						label := fmt.Sprintf("by=%d minJoin=%v k=%d", by, minJoin, k)
						want, dStats, err := ref.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
						if err != nil {
							t.Fatal(err)
						}
						if dStats.Columnar != 0 {
							t.Fatalf("%s: decoded reference claims columnar scoring: %+v", label, dStats)
						}
						got, cStats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k, LSH: true})
						if err != nil {
							t.Fatal(err)
						}
						requireSameSearch(t, "lsh packed vs decoded candidates "+label, got, want)
						if cStats.Fallback != 0 || cStats.Columnar != cStats.Candidates ||
							cStats.Candidates != dStats.Candidates || cStats.Pruned != dStats.Pruned ||
							cStats.LSHCandidates != int64(len(cands)) || cStats.LSHProbes != int64(strongLSH.Bands) {
							t.Fatalf("%s: counters diverge: packed %+v decoded %+v, %d oracle candidates", label, cStats, dStats, len(cands))
						}
						if minJoin > 0 {
							full, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k})
							if err != nil {
								t.Fatal(err)
							}
							requireSameSearch(t, "lsh vs full "+label, got, full)
						}
					}
				}
			}
		})
	}
}

// TestLSHCandidatesSubsetAndProbeMonotone: the lsh scan scores only band
// candidates (a subset of the catalog) and fewer probes can only shrink
// the candidate count; the stats expose both knobs.
func TestLSHCandidatesSubsetAndProbeMonotone(t *testing.T) {
	cfg := Config{Method: MethodMH, StorageWords: 300, Seed: 31}
	qSk, ix := buildColumnarFixture(t, cfg, 3100, 24)
	ix.BuildColumnar()
	// Selective banding: disjoint tables should not become candidates.
	if _, err := ix.BuildLSH(LSHParams{Bands: 8, Rows: 8}); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, probes := range []int{1, 2, 4, 8} {
		_, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10, LSH: true, Probes: probes})
		if err != nil {
			t.Fatal(err)
		}
		if stats.LSHProbes != int64(probes) {
			t.Fatalf("LSHProbes = %d, want %d", stats.LSHProbes, probes)
		}
		if stats.LSHCandidates < prev {
			t.Fatalf("candidates shrank from %d to %d as probes grew", prev, stats.LSHCandidates)
		}
		prev = stats.LSHCandidates
	}
	if prev >= int64(ix.Len()) {
		t.Fatalf("full-probe candidate count %d is not sublinear in catalog size %d", prev, ix.Len())
	}
	// Candidate-stage counters stay zero on the full scan.
	_, fStats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fStats.LSHProbes != 0 || fStats.LSHCandidates != 0 {
		t.Fatalf("full scan reports LSH counters: %+v", fStats)
	}
}

// TestLSHNoIndexAndInvalidation: lsh-mode search without a built view
// fails with ErrNoLSHIndex, and any index mutation invalidates the view.
func TestLSHNoIndexAndInvalidation(t *testing.T) {
	cfg := Config{Method: MethodMH, StorageWords: 300, Seed: 41}
	qSk, ix := buildColumnarFixture(t, cfg, 4100, 6)
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true}); !errors.Is(err, ErrNoLSHIndex) {
		t.Fatalf("search before BuildLSH: err = %v, want ErrNoLSHIndex", err)
	}
	if _, err := ix.BuildLSH(strongLSH); err != nil {
		t.Fatal(err)
	}
	if !ix.HasLSH() {
		t.Fatal("HasLSH false after BuildLSH")
	}
	if p, ok := ix.LSHParams(); !ok || p != strongLSH {
		t.Fatalf("LSHParams() = %+v, %v", p, ok)
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true}); err != nil {
		t.Fatal(err)
	}
	sk, _ := ix.Get(ix.Tables()[0])
	if err := ix.Add(sk); err != nil {
		t.Fatal(err)
	}
	if ix.HasLSH() {
		t.Fatal("Add did not invalidate the LSH view")
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true}); !errors.Is(err, ErrNoLSHIndex) {
		t.Fatalf("search after invalidation: err = %v, want ErrNoLSHIndex", err)
	}
}

// TestLSHEmptySignatureSemantics pins the integration-seam contract: an
// empty key sketch (nil signature) is skipped by the indexer — it neither
// errors the build nor wildcard-matches queries — and an empty query
// gathers zero band candidates instead of erroring or matching all.
func TestLSHEmptySignatureSemantics(t *testing.T) {
	cfg := Config{Method: MethodMH, StorageWords: 300, Seed: 51}
	ts, err := NewTableSketcher(cfg, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	mkSketch := func(name string, keys []uint64) *TableSketch {
		vals := make([]float64, len(keys))
		for i := range vals {
			vals[i] = 1
		}
		tab, err := NewTable(name, keys, map[string][]float64{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	keys := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	ix := NewSketchIndex()
	if err := ix.Add(mkSketch("populated", keys(80))); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(mkSketch("emptytable", nil)); err != nil {
		t.Fatal(err)
	}
	indexed, err := ix.BuildLSH(strongLSH)
	if err != nil {
		t.Fatalf("empty entry errored the build: %v", err)
	}
	if indexed != 1 {
		t.Fatalf("indexed %d entries, want 1 (the empty entry is skipped)", indexed)
	}

	// A populated query must never retrieve the empty table via banding.
	qSk := mkSketch("query", keys(80))
	res, stats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Table == "emptytable" {
			t.Fatal("empty entry wildcard-matched a populated query")
		}
	}
	if stats.LSHCandidates != 1 {
		t.Fatalf("LSHCandidates = %d, want 1", stats.LSHCandidates)
	}

	// An empty query gathers zero candidates — no error, no matches.
	eq := mkSketch("emptyquery", nil)
	res, stats, err = ix.Search(Query{Sketch: eq, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true})
	if err != nil {
		t.Fatalf("empty query errored: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("empty query matched %d candidates, want 0", len(res))
	}
	if stats.LSHCandidates != 0 || stats.LSHProbes != 0 {
		t.Fatalf("empty query probed: %+v", stats)
	}
}

// TestLSHSignatureTooShort: banding parameters wider than the sketches'
// sample count fail BuildLSH, and a query signature too short for an
// index's banding is refused.
func TestLSHSignatureTooShort(t *testing.T) {
	cfg := Config{Method: MethodMH, StorageWords: 30, Seed: 71} // M = 20 samples
	qSk, ix := buildColumnarFixture(t, cfg, 7100, 4)
	wide := LSHParams{Bands: 16, Rows: 4} // needs 64 entries
	if _, err := ix.BuildLSH(wide); err == nil || !strings.Contains(err.Error(), "banding needs 64") {
		t.Fatalf("BuildLSH with Bands×Rows > M: err = %v", err)
	}
	if ix.HasLSH() {
		t.Fatal("a failed BuildLSH left a view")
	}
	if indexed, err := ix.BuildLSH(LSHParams{Bands: 20, Rows: 1}); err != nil || indexed != ix.Len() {
		t.Fatalf("BuildLSH with Bands×Rows = M: indexed %d of %d, err = %v", indexed, ix.Len(), err)
	}
	res, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after rebuild")
	}

	// Only an index with nothing to band accepts the wide parameters, and
	// the query's signature is then too short for it.
	empty := NewSketchIndex()
	if _, err := empty.BuildLSH(wide); err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true}); err == nil {
		t.Fatal("short query signature accepted")
	}
}

// TestBuildLSHRefusesMethodWithoutSignature: an index of a method without
// LSH signatures (JL) cannot be banded at all, and a JL query cannot probe
// a banded index.
func TestBuildLSHRefusesMethodWithoutSignature(t *testing.T) {
	jl := Config{Method: MethodJL, StorageWords: 300, Seed: 61}
	qSk, ix := buildColumnarFixture(t, jl, 6100, 4)
	if _, err := ix.BuildLSH(strongLSH); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("BuildLSH of a JL index: err = %v, want ErrNoSignature", err)
	}
	if ix.HasLSH() {
		t.Fatal("a failed BuildLSH left a view")
	}
	empty := NewSketchIndex()
	if _, err := empty.BuildLSH(strongLSH); err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true}); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("JL query: err = %v, want ErrNoSignature", err)
	}
}

// requireOracleCandidates checks that an lsh-mode search of ix under
// banding p and the probe budget gathers exactly bandOracle's entries:
// the tables of its unbounded, unfiltered ranking and its LSHCandidates
// count.
func requireOracleCandidates(t *testing.T, label string, ix *SketchIndex, q *TableSketch, p LSHParams, probes int) {
	t.Helper()
	want := bandOracle(t, ix, q, p, probes)
	res, stats, err := ix.Search(Query{Sketch: q, Column: "v", RankBy: RankByJoinSize, MinJoinSize: math.Inf(-1), K: -1, LSH: true, Probes: probes})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var got []string
	for _, r := range res {
		got = append(got, r.Table)
	}
	slices.Sort(got)
	got = slices.Compact(got)
	slices.Sort(want)
	if !slices.Equal(got, want) || stats.LSHCandidates != int64(len(want)) {
		t.Fatalf("%s: gathered %v (%d), the band oracle %v", label, got, stats.LSHCandidates, want)
	}
}

// TestLSHSharedRunsBandedWhileSearched: indexes over one packed index's
// entries share its runs. Banded concurrently — two under the same
// parameters, one under others — each packs and bands its own runs, since
// the shared ones carry no bands; indexes over a banded index's entries,
// banded while that index and its siblings are searched, share its runs
// and their bands under its parameters and pack their own under others.
// Every index gathers exactly its band oracle's candidates for probes 1,
// 4 and all. Under -race this shows that banding never writes to a run
// another index reads.
func TestLSHSharedRunsBandedWhileSearched(t *testing.T) {
	cfg := Config{Method: MethodWMH, StorageWords: 300, Seed: 23}
	qSk, base := buildColumnarFixture(t, cfg, 2300, 64)
	if base.BuildColumnar() == 0 {
		t.Fatal("nothing packed")
	}
	other := LSHParams{Bands: 16, Rows: 2}
	clone := func(of *SketchIndex) *SketchIndex {
		ix := NewSketchIndex()
		for _, name := range of.Tables() {
			e, _ := of.Get(name)
			if err := ix.Add(e); err != nil {
				t.Error(err)
			}
		}
		return ix
	}
	build := func(ixs []*SketchIndex, ps []LSHParams) {
		var wg sync.WaitGroup
		for i := range ixs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ixs[i].BuildLSH(ps[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	// check checks that every run of index i is banded under ps[i], and is
	// shares[i]'s run at that position exactly when shares[i] is banded
	// under ps[i] too; and that each index gathers its oracle's entries.
	check := func(label string, ixs []*SketchIndex, ps []LSHParams, shares []*SketchIndex) {
		for i, ix := range ixs {
			for j, r := range ix.view.runs {
				if r.bands == nil || r.bands.Params() != ps[i].internal() {
					t.Fatalf("%s: index %d run %d banded %+v, want %+v", label, i, j, r.bands, ps[i])
				}
				shp, _ := shares[i].LSHParams()
				if shared := r == shares[i].view.runs[j]; shared != (ps[i] == shp) {
					t.Fatalf("%s: index %d run %d shared %v with an index banded %+v", label, i, j, shared, shp)
				}
			}
			for _, probes := range []int{1, 4, 0} {
				requireOracleCandidates(t, fmt.Sprintf("%s: index %d probes=%d", label, i, probes), ix, qSk, ps[i], probes)
			}
		}
	}

	first, firstParams := []*SketchIndex{clone(base), clone(base), clone(base)}, []LSHParams{strongLSH, strongLSH, other}
	build(first, firstParams)
	check("banded at once", first, firstParams, []*SketchIndex{base, base, base})

	later, laterParams := []*SketchIndex{clone(first[0]), clone(first[0])}, []LSHParams{strongLSH, other}
	var wg sync.WaitGroup
	for _, ix := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true, Probes: 4}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	build(later, laterParams)
	wg.Wait()
	check("banded while searched", later, laterParams, []*SketchIndex{first[0], first[0]})
}
