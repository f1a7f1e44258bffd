package catalog

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
)

// catalogModel is the reference a catalog is checked against: each
// table's marshaled bytes, nothing else. Merges run through
// TableSketch.Merge on decoded copies, so the model shares no sketch, and
// no array, with the catalog.
type catalogModel map[string][]byte

func (m catalogModel) decode(t *testing.T, name string) *ipsketch.TableSketch {
	t.Helper()
	ts, err := ipsketch.UnmarshalTableSketch(m[name])
	if err != nil {
		t.Fatalf("model %s: %v", name, err)
	}
	return ts
}

func (m catalogModel) put(t *testing.T, ts *ipsketch.TableSketch) {
	t.Helper()
	b, err := ts.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m[ts.Name] = b
}

// apply applies one mutation and reports what the catalog should answer:
// for a merge whether the table existed, for a delete whether it was there.
func (m catalogModel) apply(t *testing.T, mut Mutation) bool {
	t.Helper()
	_, existed := m[mut.Name]
	switch mut.Op {
	case MutationPut:
		m.put(t, mut.Sketch)
	case MutationMerge:
		if !existed {
			m.put(t, mut.Sketch)
			break
		}
		merged, err := m.decode(t, mut.Name).Merge(mut.Sketch)
		if err != nil {
			t.Fatalf("model merge %s: %v", mut.Name, err)
		}
		m.put(t, merged)
	case MutationDelete:
		delete(m, mut.Name)
	}
	return existed
}

// index is a fresh index over the model's tables: every entry decoded
// from its bytes, so its searches take the decoded scorer. With lshp it
// is banded as well, which packs it (BuildLSH packs what it bands).
func (m catalogModel) index(t *testing.T, lshp *ipsketch.LSHParams) *ipsketch.SketchIndex {
	t.Helper()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	ix := ipsketch.NewSketchIndex()
	for _, name := range names {
		if err := ix.Add(m.decode(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	if lshp != nil {
		if _, err := ix.BuildLSH(*lshp); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// requireMatchesModel checks a catalog against the model: the same
// tables, Get returning the model's bytes, and searches under every
// RankBy (lsh mode too when the catalog bands) ranking Float64bits-equal
// to the model's fresh decoded index.
func requireMatchesModel(t *testing.T, label string, c *Catalog, m catalogModel, query *ipsketch.TableSketch, q *ipsketch.Query) {
	t.Helper()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	if got := c.Tables(); !slices.Equal(got, names) {
		t.Fatalf("%s: tables %v, model %v", label, got, names)
	}
	for _, name := range names {
		ts, ok := c.Get(name)
		if !ok {
			t.Fatalf("%s: Get(%s) missing", label, name)
		}
		b, err := ts.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, m[name]) {
			t.Fatalf("%s: Get(%s) bytes differ from the model", label, name)
		}
	}
	lshp, banded := c.LSH()
	var lp *ipsketch.LSHParams
	if banded {
		lp = &lshp
	}
	ref := m.index(t, lp)
	queries := []ipsketch.Query{}
	for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
		queries = append(queries, ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: -1})
		if banded {
			queries = append(queries, ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: 3, LSH: true, Probes: 4})
		}
	}
	if q != nil {
		queries = append(queries, *q)
	}
	for _, q := range queries {
		want, _, err := ref.Search(q)
		if err != nil {
			t.Fatalf("%s: model search %+v: %v", label, q, err)
		}
		got, _, err := c.Search(q)
		if err != nil {
			t.Fatalf("%s: catalog search %+v: %v", label, q, err)
		}
		requireSameRanking(t, got, want, fmt.Sprintf("%s: by=%d k=%d lsh=%v min=%v", label, q.RankBy, q.K, q.LSH, q.MinJoinSize))
	}
}

// TestCatalogMatchesModel is TestRestoreMatchesLive's mutation sequences
// run step by step against a plain model: seeded random
// Put/Merge/Delete, interleaved with searches and Save+Load round trips,
// at 1 and 16 shards, with and without LSH. After every step the catalog
// must hold exactly the model's bytes and rank exactly like a fresh
// decoded index over the model, whatever the catalog's packs and views
// share internally.
func TestCatalogMatchesModel(t *testing.T) {
	lsh := ipsketch.LSHParams{Bands: 16, Rows: 2}
	type config struct {
		method ipsketch.Method
		lshp   *ipsketch.LSHParams
	}
	// Only MH and WMH band; WMH partials of different vectors do not
	// merge, so the sequences run under MH, and KMV covers a sorted
	// sample with a dedicated join-size scorer.
	configs := []config{{ipsketch.MethodMH, nil}, {ipsketch.MethodMH, &lsh}, {ipsketch.MethodKMV, nil}}
	for _, cfg := range configs {
		for _, shards := range []int{1, 16} {
			for _, seed := range []uint64{1, 2} {
				label := fmt.Sprintf("%v shards=%d lsh=%v seed=%d", cfg.method, shards, cfg.lshp != nil, seed)
				runModel(t, label, cfg.method, Options{Shards: shards, LSH: cfg.lshp}, seed)
			}
		}
	}
}

func runModel(t *testing.T, label string, method ipsketch.Method, opts Options, seed uint64) {
	query, ops := randomOps(t, method, seed, 60)
	rng := hashing.NewSplitMix64(seed ^ 0x6d6f64656c)
	model := catalogModel{}
	c := New(opts)
	path := filepath.Join(t.TempDir(), "snap.ipsk")
	loads := 0
	for i, op := range ops {
		step := fmt.Sprintf("%s step %d (%v %s)", label, i, op.Op, op.Name)
		want := model.apply(t, op)
		_, got, err := c.Apply(op)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got != want {
			t.Fatalf("%s: catalog reported %v, model %v", step, got, want)
		}
		if rng.Intn(8) == 0 {
			if err := c.Save(path); err != nil {
				t.Fatalf("%s: save: %v", step, err)
			}
			c = New(opts)
			if _, err := c.Load(path); err != nil {
				t.Fatalf("%s: load: %v", step, err)
			}
			loads++
			step += " +save/load"
		}
		var extra *ipsketch.Query
		if rng.Intn(3) == 0 {
			// A search of its own: random ranking, bound and join floor.
			extra = &ipsketch.Query{Sketch: query, Column: "v", RankBy: ipsketch.RankBy(rng.Intn(3)),
				K: rng.Intn(6) - 1, MinJoinSize: float64(rng.Intn(3)) * 10}
		}
		requireMatchesModel(t, step, c, model, query, extra)
	}
	if loads == 0 || len(model) < 4 {
		t.Fatalf("%s: sequence exercises too little: %d loads, %d tables", label, loads, len(model))
	}
}
