package ipsketch

import (
	"testing"

	"repro/internal/hashing"
)

// buildSearchFixture creates a query table, a strongly correlated needle
// table sharing half the query's keys, and several unrelated tables.
func buildSearchFixture(t *testing.T) (*TableSketcher, *TableSketch, *SketchIndex) {
	t.Helper()
	rng := hashing.NewSplitMix64(77)
	const n = 400
	qKeys := make([]uint64, n)
	qVals := make([]float64, n)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = rng.Norm()
	}
	query, err := NewTable("query", qKeys, map[string][]float64{"v": qVals})
	if err != nil {
		t.Fatal(err)
	}

	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 1500, Seed: 9}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(query)
	if err != nil {
		t.Fatal(err)
	}

	ix := NewSketchIndex()

	// Needle: shares even keys, value = 0.9·query + noise.
	nKeys := make([]uint64, n/2)
	nVals := make([]float64, n/2)
	for i := range nKeys {
		nKeys[i] = uint64(2 * i)
		nVals[i] = 0.9*qVals[2*i] + 0.3*rng.Norm()
	}
	needle, err := NewTable("needle", nKeys, map[string][]float64{"w": nVals})
	if err != nil {
		t.Fatal(err)
	}
	nSk, err := ts.SketchTable(needle)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(nSk); err != nil {
		t.Fatal(err)
	}

	// Distractors: joinable but uncorrelated, plus disjoint keys.
	for d := 0; d < 3; d++ {
		keys := make([]uint64, n/2)
		vals := make([]float64, n/2)
		for i := range keys {
			if d < 2 {
				keys[i] = uint64(2*i + 1) // odd keys: joinable with query
			} else {
				keys[i] = uint64(100000 + i) // disjoint
			}
			vals[i] = rng.Norm()
		}
		tab, err := NewTable(map[int]string{0: "noiseA", 1: "noiseB", 2: "disjoint"}[d],
			keys, map[string][]float64{"w": vals})
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
	return ts, qSk, ix
}

func TestSketchIndexAddGetLen(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if _, ok := ix.Get("needle"); !ok {
		t.Fatal("needle not found")
	}
	if _, ok := ix.Get("missing"); ok {
		t.Fatal("missing table found")
	}
	if err := ix.Add(nil); err == nil {
		t.Fatal("nil sketch accepted")
	}
	// Replacement keeps Len stable.
	sk, _ := ix.Get("needle")
	if err := ix.Add(sk); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 4 {
		t.Fatalf("Len after replace = %d", ix.Len())
	}
	_ = qSk
}

func TestSearchByCorrelationFindsNeedle(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	results, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByAbsCorrelation, MinJoinSize: 10, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].Table != "needle" {
		t.Fatalf("top result %q, want needle (score %.3f)", results[0].Table, results[0].Score)
	}
	if results[0].Stats.Correlation < 0.5 {
		t.Fatalf("needle correlation estimate %.3f too low", results[0].Stats.Correlation)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
	// Disjoint table must be filtered by the min join size.
	for _, r := range results {
		if r.Table == "disjoint" {
			t.Fatal("disjoint table passed the join-size filter")
		}
	}
}

func TestSearchByJoinSize(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	results, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, MinJoinSize: 10, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 3 {
		t.Fatalf("expected ≥3 joinable candidates, got %d", len(results))
	}
	// All joinable tables share ~200 keys with the query; scores should
	// be in that ballpark.
	for _, r := range results {
		if r.Score < 100 || r.Score > 320 {
			t.Fatalf("%s join size estimate %.1f implausible", r.Table, r.Score)
		}
	}
}

func TestSearchByInnerProduct(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	results, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByAbsInnerProduct, MinJoinSize: 10, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || results[0].Table != "needle" {
		t.Fatalf("inner-product ranking top = %v", results)
	}
}

func TestSearchErrors(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	if _, _, err := ix.Search(Query{Sketch: nil, Column: "v", RankBy: RankByJoinSize, K: -1}); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankBy(99), K: -1}); err == nil {
		t.Fatal("unknown ranking accepted")
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "missing", RankBy: RankByJoinSize, K: -1}); err == nil {
		t.Fatal("missing query column accepted")
	}
}

func TestSearchSkipsQueryItself(t *testing.T) {
	ts, qSk, ix := buildSearchFixture(t)
	_ = ts
	if err := ix.Add(qSk); err != nil {
		t.Fatal(err)
	}
	results, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Table == "query" {
			t.Fatal("query matched itself")
		}
	}
}
