package ipsketch

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/hashing"
)

// deriveFamilies are the families Derive is checked under: three packed
// ones (two with LSH signatures, one without) and one that scans decoded.
var deriveFamilies = []struct {
	name string
	cfg  Config
}{
	{"WMH", Config{Method: MethodWMH, StorageWords: 300, Seed: 41}},
	{"MH", Config{Method: MethodMH, StorageWords: 300, Seed: 42}},
	{"KMV", Config{Method: MethodKMV, StorageWords: 300, Seed: 43}},
	{"JL", Config{Method: MethodJL, StorageWords: 300, Seed: 44}},
}

// sketchPool returns the entries of buildColumnarFixture's index by name.
func sketchPool(t *testing.T, cfg Config, seed uint64, n int) (*TableSketch, map[string]*TableSketch) {
	t.Helper()
	q, ix := buildColumnarFixture(t, cfg, seed, n)
	pool := make(map[string]*TableSketch, n)
	for _, e := range ix.entries {
		pool[e.Name] = e
	}
	return q, pool
}

// deriveRankings is every ranking the derivation must preserve: each
// RankBy at k = 10 and unbounded, plus lsh mode when the index is banded.
func deriveRankings(t *testing.T, ix *SketchIndex, q *TableSketch) [][]SearchResult {
	t.Helper()
	var out [][]SearchResult
	for _, by := range []RankBy{RankByJoinSize, RankByAbsCorrelation, RankByAbsInnerProduct} {
		for _, k := range []int{10, -1} {
			queries := []Query{{Sketch: q, Column: "v", RankBy: by, K: k}}
			if ix.HasLSH() {
				queries = append(queries, Query{Sketch: q, Column: "v", RankBy: by, K: k, LSH: true})
			}
			for _, qq := range queries {
				res, _, err := ix.Search(qq)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
	}
	return out
}

// requireSameRankings compares two deriveRankings bit for bit.
func requireSameRankings(t *testing.T, label string, got, want [][]SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rankings, want %d", label, len(got), len(want))
	}
	for i := range got {
		requireSameSearch(t, fmt.Sprintf("%s: ranking %d", label, i), got[i], want[i])
	}
}

// runNames lists the names of each run of ix's view.
func runNames(ix *SketchIndex) [][]string {
	if ix.view == nil {
		return nil
	}
	out := make([][]string, len(ix.view.runs))
	for r := range ix.view.runs {
		for _, e := range ix.entries[ix.view.start[r]:ix.view.start[r+1]] {
			out[r] = append(out[r], e.Name)
		}
	}
	return out
}

// TestColumnarDeriveMatchesRebuild runs seeded edit sequences — puts of
// present and of new names, deletes of present and of absent names, one to
// three a step — through Derive, under packed families with and without
// signatures and a family that scans decoded, unbanded and banded. After
// every step the derived index must equal a rebuild of the same tables
// (NewSketchIndex, Adds in name order, BuildColumnar or BuildLSH): the
// same names, Get bytes, run cut and rankings, and the same refusal where
// the rebuild refuses to band. Every run of the parent that holds no
// edited name and is cut alike must be the derived index's run, not a
// copy; and the parent must be left as it was.
func TestColumnarDeriveMatchesRebuild(t *testing.T) {
	for _, fam := range deriveFamilies {
		for _, banded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/banded=%v", fam.name, banded), func(t *testing.T) {
				t.Parallel()
				q, pool := sketchPool(t, fam.cfg, 5000+fam.cfg.Seed, 40)
				_, alt := sketchPool(t, fam.cfg, 6000+fam.cfg.Seed, 40) // the same names, other contents
				names := slices.Sorted(maps.Keys(pool))
				var bands *LSHParams
				if banded {
					bands = &LSHParams{Bands: 32, Rows: 2}
				}
				rng := hashing.NewSplitMix64(fam.cfg.Seed)
				model := map[string]*TableSketch{}
				parent := NewSketchIndex()
				shared := 0
				for step := range 40 {
					label := fmt.Sprintf("step %d", step)
					edits := map[string]*TableSketch{}
					for range 1 + rng.Intn(3) {
						name := names[rng.Intn(len(names))]
						switch _, present := model[name]; {
						case step < 8 || rng.Intn(3) > 0: // a put, of a new or present name
							edits[name] = pool[name]
							if present && rng.Intn(2) == 0 {
								edits[name] = alt[name]
							}
						case present || rng.Intn(2) == 0:
							edits[name] = nil
						default:
							edits["absent-"+name] = nil
						}
					}

					want := NewSketchIndex()
					next := applyEdits(model, edits)
					for _, name := range slices.Sorted(maps.Keys(next)) {
						if err := want.Add(next[name]); err != nil {
							t.Fatal(err)
						}
					}
					var wantErr error
					if bands != nil {
						_, wantErr = want.BuildLSH(*bands)
					} else {
						want.BuildColumnar()
					}

					before := deriveRankings(t, parent, q)
					entries, view := slices.Clone(parent.entries), parent.view
					var runs []*packRun
					if view != nil {
						runs = slices.Clone(view.runs)
					}
					beforeRuns := runNames(parent)

					got, err := parent.Derive(edits, bands)
					if !slices.Equal(parent.entries, entries) || parent.view != view || view != nil && !slices.Equal(view.runs, runs) {
						t.Fatalf("%s: Derive changed its parent", label)
					}
					requireSameRankings(t, label+": parent", deriveRankings(t, parent, q), before)
					if (err == nil) != (wantErr == nil) || err != nil && !errors.Is(err, ErrNoSignature) {
						t.Fatalf("%s: Derive err %v, rebuild err %v", label, err, wantErr)
					}
					if err != nil {
						// Banding refused, as BuildLSH refused it: go on unbanded.
						if got, err = parent.Derive(edits, nil); err != nil {
							t.Fatal(err)
						}
						want.BuildColumnar()
					}

					if !slices.Equal(got.Tables(), want.Tables()) {
						t.Fatalf("%s: tables %v, want %v", label, got.Tables(), want.Tables())
					}
					for _, name := range want.Tables() {
						g, _ := got.Get(name)
						w, _ := want.Get(name)
						gb, err := g.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						wb, err := w.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gb, wb) {
							t.Fatalf("%s: %s encodes differently from the rebuild's", label, name)
						}
					}
					if (got.view == nil) != (want.view == nil) || got.view != nil && !slices.Equal(got.view.start, want.view.start) {
						t.Fatalf("%s: derived runs cut at %v, the rebuild's at %v", label, runNames(got), runNames(want))
					}
					requireSameRankings(t, label, deriveRankings(t, got, q), deriveRankings(t, want, q))

					gotRuns := runNames(got)
				runs:
					for r, rn := range gotRuns {
						for _, name := range rn {
							if _, edited := edits[name]; edited {
								continue runs
							}
						}
						for pr, prn := range beforeRuns {
							if slices.Equal(prn, rn) {
								if got.view.runs[r] != parent.view.runs[pr] {
									t.Fatalf("%s: run %v holds no edited name but was packed again", label, rn)
								}
								shared++
							}
						}
					}
					model, parent = next, got
				}
				if fam.cfg.Method != MethodJL && shared == 0 {
					t.Fatal("no run was ever shared with a parent")
				}
			})
		}
	}
}

// applyEdits returns model with edits applied (a nil sketch deletes its
// name).
func applyEdits(model, edits map[string]*TableSketch) map[string]*TableSketch {
	out := maps.Clone(model)
	for name, ts := range edits {
		if ts == nil {
			delete(out, name)
		} else {
			out[name] = ts
		}
	}
	return out
}

// TestColumnarDeriveRefuses: Derive refuses, returning no index and
// leaving its parent as it was, a put incompatible with the parent's
// configuration (or, from an empty parent, with the first put's), a put
// whose sketch is named other than its key, a parent out of name order
// (an index Add filled out of order), and invalid banding.
func TestColumnarDeriveRefuses(t *testing.T) {
	cfg := Config{Method: MethodWMH, StorageWords: 200, Seed: 45}
	_, pool := sketchPool(t, cfg, 7000, 12)
	other := cfg
	other.Seed++
	_, foreign := sketchPool(t, other, 7000, 12)
	names := slices.Sorted(maps.Keys(pool))

	parent, err := NewSketchIndex().Derive(pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, view := slices.Clone(parent.entries), parent.view
	for label, edits := range map[string]map[string]*TableSketch{
		"incompatible put":     {names[3]: foreign[names[3]]},
		"new incompatible put": {"zzz": foreign[names[3]]},
		"misnamed put":         {names[3]: pool[names[4]]},
	} {
		if ix, err := parent.Derive(edits, nil); err == nil || ix != nil {
			t.Fatalf("%s: derived %v, err %v", label, ix, err)
		}
		if !slices.Equal(parent.entries, entries) || parent.view != view {
			t.Fatalf("%s: the refused derivation changed its parent", label)
		}
	}
	if _, err := NewSketchIndex().Derive(map[string]*TableSketch{names[0]: pool[names[0]], names[1]: foreign[names[1]]}, nil); err == nil {
		t.Fatal("an empty parent took puts of two configurations")
	}
	if _, err := parent.Derive(nil, &LSHParams{Bands: 0, Rows: 2}); err == nil {
		t.Fatal("invalid banding accepted")
	}

	unsorted := NewSketchIndex()
	for _, name := range slices.Backward(names) {
		if err := unsorted.Add(pool[name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := unsorted.Derive(nil, nil); err == nil {
		t.Fatal("derived from a parent out of name order")
	}
}
