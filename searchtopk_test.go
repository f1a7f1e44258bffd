package ipsketch

import (
	"math"
	"testing"
)

// resultsIdentical compares two results field by field, treating float
// fields bitwise so NaN statistics (e.g. correlation of a size-0 join)
// compare equal to themselves.
func resultsIdentical(a, b SearchResult) bool {
	f64 := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Table == b.Table && a.Column == b.Column &&
		f64(a.Score, b.Score) &&
		f64(a.Stats.Size, b.Stats.Size) &&
		f64(a.Stats.SumA, b.Stats.SumA) && f64(a.Stats.SumB, b.Stats.SumB) &&
		f64(a.Stats.MeanA, b.Stats.MeanA) && f64(a.Stats.MeanB, b.Stats.MeanB) &&
		f64(a.Stats.VarA, b.Stats.VarA) && f64(a.Stats.VarB, b.Stats.VarB) &&
		f64(a.Stats.InnerProduct, b.Stats.InnerProduct) &&
		f64(a.Stats.Covariance, b.Stats.Covariance) &&
		f64(a.Stats.Correlation, b.Stats.Correlation)
}

// TestSearchTopKPrefixOfSearch: for every k, Search must return
// exactly the first k entries of the full ranking.
func TestSearchTopKPrefixOfSearch(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
		full, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= len(full)+2; k++ {
			top, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
			if err != nil {
				t.Fatal(err)
			}
			want := k
			if want > len(full) {
				want = len(full)
			}
			if len(top) != want {
				t.Fatalf("by=%d k=%d: got %d results, want %d", by, k, len(top), want)
			}
			for i := range top {
				if !resultsIdentical(top[i], full[i]) {
					t.Fatalf("by=%d k=%d: result %d differs: %+v vs %+v", by, k, i, top[i], full[i])
				}
			}
		}
	}
}

// TestSearchDeterministic: repeated parallel searches must return
// identical rankings.
func TestSearchDeterministic(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	first, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		again, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d results vs %d", trial, len(again), len(first))
		}
		for i := range first {
			if !resultsIdentical(first[i], again[i]) {
				t.Fatalf("trial %d: result %d differs", trial, i)
			}
		}
	}
}

// TestSearchTopKErrors: nil query and unknown rankings must fail, k == 0
// must return nothing.
func TestSearchTopKErrors(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	if _, _, err := ix.Search(Query{Sketch: nil, Column: "v", RankBy: RankByJoinSize, K: 3}); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankBy(99), K: 3}); err == nil {
		t.Fatal("unknown ranking accepted")
	}
	if _, _, err := ix.Search(Query{Sketch: qSk, Column: "missing", RankBy: RankByJoinSize, K: 3}); err == nil {
		t.Fatal("missing query column accepted")
	}
	res, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("k=0 returned %d results", len(res))
	}
}

// TestSearchTopKAllTiedScores: when every candidate scores identically
// (identical table contents under different names), the ranking must be
// exactly scan order — the deterministic tiebreak — for every k, and must
// hold across repeated parallel runs.
func TestSearchTopKAllTiedScores(t *testing.T) {
	ts, err := NewTableSketcher(Config{Method: MethodWMH, StorageWords: 200, Seed: 4}, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = float64(i%7) + 1
	}
	qt, err := NewTable("query", keys, map[string][]float64{"v": vals})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qt)
	if err != nil {
		t.Fatal(err)
	}

	// Identical content under names whose sort order differs from the
	// insertion order, so a sorted-by-name bug would be caught.
	names := []string{"m", "z", "a", "q", "c", "x", "b", "k", "f", "t",
		"n", "y", "d", "r", "e", "w", "g", "l", "h", "s"}
	ix := NewSketchIndex()
	for _, name := range names {
		tab, err := NewTable(name, keys, map[string][]float64{"w": vals})
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

	for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
		full, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != len(names) {
			t.Fatalf("by=%d: %d results, want %d", by, len(full), len(names))
		}
		for i, r := range full {
			if r.Table != names[i] {
				t.Fatalf("by=%d: rank %d is %q, want scan-order %q", by, i, r.Table, names[i])
			}
			if i > 0 && r.Score != full[0].Score {
				t.Fatalf("by=%d: scores not tied: %v vs %v", by, r.Score, full[0].Score)
			}
		}
		// Every k returns exactly the scan-order prefix, including k far
		// beyond the catalog size.
		for _, k := range []int{1, 2, 7, len(names), len(names) + 50} {
			top, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: k})
			if err != nil {
				t.Fatal(err)
			}
			want := k
			if want > len(full) {
				want = len(full)
			}
			if len(top) != want {
				t.Fatalf("by=%d k=%d: %d results", by, k, len(top))
			}
			for i := range top {
				if !resultsIdentical(top[i], full[i]) {
					t.Fatalf("by=%d k=%d: rank %d differs", by, k, i)
				}
			}
		}
	}
}

// TestSearchTopKBeyondCatalogSize: k larger than the candidate count is
// the full ranking, not an error or padding.
func TestSearchTopKBeyondCatalogSize(t *testing.T) {
	_, qSk, ix := buildSearchFixture(t)
	full, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	top, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: ix.Len() * 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != len(full) {
		t.Fatalf("k beyond size: %d results, want %d", len(top), len(full))
	}
	for i := range top {
		if !resultsIdentical(top[i], full[i]) {
			t.Fatalf("result %d differs", i)
		}
	}
}
