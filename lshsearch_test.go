package ipsketch

import (
	"errors"
	"fmt"
	"strings"
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
// the full scan — on both the columnar and the decoded rescore path.
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

// TestLSHSearchTieHeavyEquivalence: on a corpus built to tie, the packed
// lsh rescore (rank over the candidates, fill the final k) must match the
// decoded lsh rescore bit for bit — results and scan counters — for
// every RankBy, k shape and minJoinSize around the tie value; and with
// aggressive banding and a positive minJoinSize (so the full scan's
// size ≤ 0 tail, which banding never retrieves, is pruned there too) it
// must match the full scan.
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
			n := len(all)
			for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
				for _, minJoin := range tieMinJoins(all) {
					for _, k := range []int{1, 7, n, n + 5, -1} {
						label := fmt.Sprintf("by=%d minJoin=%v k=%d", by, minJoin, k)
						ix.view = nil
						if _, err := ix.BuildLSH(strongLSH); err != nil {
							t.Fatal(err)
						}
						want, dStats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k, LSH: true})
						if err != nil {
							t.Fatal(err)
						}
						if dStats.Columnar != 0 {
							t.Fatalf("%s: decoded rescore claims columnar scoring: %+v", label, dStats)
						}
						ix.BuildColumnar()
						got, cStats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: minJoin, K: k, LSH: true})
						if err != nil {
							t.Fatal(err)
						}
						requireSameSearch(t, "lsh packed vs decoded "+label, got, want)
						if cStats.Fallback != 0 || cStats.Columnar != cStats.Candidates ||
							cStats.Candidates != dStats.Candidates || cStats.Pruned != dStats.Pruned ||
							cStats.LSHCandidates != dStats.LSHCandidates || cStats.LSHProbes != dStats.LSHProbes {
							t.Fatalf("%s: counters diverge: packed %+v decoded %+v", label, cStats, dStats)
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
	// Clone carries the view; mutating the clone clears only the clone.
	cl := ix.Clone()
	if !cl.HasLSH() {
		t.Fatal("clone lost the LSH view")
	}
	name := ix.Tables()[0]
	if !cl.Remove(name) {
		t.Fatal("remove failed")
	}
	if cl.HasLSH() {
		t.Fatal("mutated clone retains a stale LSH view")
	}
	if !ix.HasLSH() {
		t.Fatal("original lost its LSH view to a clone mutation")
	}
	sk, _ := ix.Get(name)
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

// TestLSHUnindexedFallback: entries whose method has no signature are
// exact-rescored on every lsh search instead of silently vanishing.
func TestLSHUnindexedFallback(t *testing.T) {
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i], vals[i] = uint64(i), float64(i)
	}
	mh, err := NewTableSketcher(Config{Method: MethodMH, StorageWords: 300, Seed: 61}, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := NewTableSketcher(Config{Method: MethodJL, StorageWords: 300, Seed: 61}, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewSketchIndex()
	for i, ts := range []*TableSketcher{mh, jl, mh, jl} {
		tab, err := NewTable(fmt.Sprintf("t%d", i), keys, map[string][]float64{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(sk); err != nil {
			t.Fatal(err)
		}
	}
	indexed, err := ix.BuildLSH(strongLSH)
	if err != nil {
		t.Fatal(err)
	}
	if indexed != 2 {
		t.Fatalf("indexed %d entries, want 2 (the JL entries are unbandable)", indexed)
	}
	qt, err := NewTable("query", keys, map[string][]float64{"v": vals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := mh.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}
	// A lax mixed-method index fails mid-scan on the JL entries in both
	// modes — the unindexed set is scanned, not skipped.
	_, _, lshErr := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true})
	if lshErr == nil || !strings.Contains(lshErr.Error(), "t1.v") {
		t.Fatalf("lsh search skipped the unbandable entries: err = %v", lshErr)
	}
	_, _, fullErr := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if fullErr == nil || fullErr.Error() != lshErr.Error() {
		t.Fatalf("error divergence:\nlsh  %v\nfull %v", lshErr, fullErr)
	}
	// A JL query cannot band at all.
	jlq, err := jl.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(Query{Sketch: jlq, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true}); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("JL query: err = %v, want ErrNoSignature", err)
	}
}

// TestLSHSignatureTooShort: banding parameters wider than the sketch's
// sample count leave entries unindexed and reject the query signature.
func TestLSHSignatureTooShort(t *testing.T) {
	cfg := Config{Method: MethodMH, StorageWords: 30, Seed: 71} // M = 20 samples
	qSk, ix := buildColumnarFixture(t, cfg, 7100, 4)
	wide := LSHParams{Bands: 16, Rows: 4} // needs 64 entries
	indexed, err := ix.BuildLSH(wide)
	if err != nil {
		t.Fatal(err)
	}
	if indexed != 0 {
		t.Fatalf("indexed %d entries with short signatures, want 0", indexed)
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 5, LSH: true}); err == nil {
		t.Fatal("short query signature accepted")
	}
	// The unindexed entries are still rescored under a long-enough query:
	// search the same catalog with a valid query but short catalog
	// signatures by rebuilding with params the query satisfies.
	if _, err := ix.BuildLSH(LSHParams{Bands: 20, Rows: 1}); err != nil {
		t.Fatal(err)
	}
	res, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1, LSH: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after rebuild")
	}
}
