package catalog

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
)

// span is the address range of one array.
type span struct{ lo, hi uintptr }

// spanOf is the range a slice's length covers and whether its capacity
// ends there too.
func spanOf(s reflect.Value) (span, bool) {
	lo := s.Pointer()
	return span{lo, lo + uintptr(s.Len())*s.Type().Elem().Size()}, s.Cap() == s.Len()
}

func (s span) holds(o span) bool { return s.lo <= o.lo && o.hi <= s.hi }

func (s span) overlaps(o span) bool { return o.lo < s.hi && s.lo < o.hi }

// packRun is one run of an index's columnar view, read by reflection
// (the index exports none of it): the run object's address, the names of
// the entries it holds, the full tag and value arrays of its key, value
// and squared-value packs, and the addresses of its bands and of their
// key and id arrays (none for a run without bands).
type packRun struct {
	id    uintptr
	names []string
	spans []span
	bands []uintptr
}

// packRuns returns the runs of ix's view in scan order, or nil for an
// index without a view.
func packRuns(t *testing.T, ix *ipsketch.SketchIndex) []packRun {
	t.Helper()
	v := reflect.ValueOf(ix).Elem().FieldByName("view")
	if v.IsNil() {
		return nil
	}
	runs, start := v.Elem().FieldByName("runs"), v.Elem().FieldByName("start")
	names := ix.Tables()
	out := make([]packRun, runs.Len())
	for i := range out {
		r := runs.Index(i)
		out[i] = packRun{id: r.Pointer(), names: names[start.Index(i).Int():start.Index(i+1).Int()]}
		pk := r.Elem().FieldByName("pk").Elem().Elem()
		for _, name := range []string{"keys", "vals", "sqs"} {
			cols := pk.FieldByName(name)
			for _, arr := range []string{"tags", "vals"} {
				a := cols.FieldByName(arr)
				lo := a.Pointer()
				out[i].spans = append(out[i].spans, span{lo, lo + uintptr(a.Cap())*a.Type().Elem().Size()})
			}
		}
		if b := r.Elem().FieldByName("bands"); !b.IsNil() {
			out[i].bands = append(out[i].bands, b.Pointer())
			for _, arr := range []string{"keys", "ids"} {
				for j, per := 0, b.Elem().FieldByName(arr); j < per.Len(); j++ {
					out[i].bands = append(out[i].bands, per.Index(j).Pointer())
				}
			}
		}
	}
	return out
}

// sampleSlices returns a sketch's stored tag and value slices: the two
// slice fields of its family payload.
func sampleSlices(sk *ipsketch.Sketch) []reflect.Value {
	p := reflect.ValueOf(sk).Elem().FieldByName("payload").Elem().Elem()
	var out []reflect.Value
	for i := 0; i < p.NumField(); i++ {
		if f := p.Field(i); f.Kind() == reflect.Slice {
			out = append(out, f)
		}
	}
	return out
}

// requireAliasesPack checks every entry of ix: each of its sketches'
// tag and value slices lies inside the pack of one of ix's own runs (the
// key, value or squared-value pack as the sketch is) and ends at its
// capacity, and every run that is not one of the previous runs (run
// objects of the indexes published before, which are immutable) touches
// none of the older packs: a rebuilt run is a fresh copy, an untouched one
// the previous object.
func requireAliasesPack(t *testing.T, label string, ix *ipsketch.SketchIndex, previous map[uintptr]bool, older []span) {
	t.Helper()
	runs := packRuns(t, ix)
	if ix.Len() > 0 && runs == nil {
		t.Fatalf("%s: a non-empty published index has no pack", label)
	}
	for i, r := range runs {
		if previous[r.id] {
			continue
		}
		for _, sp := range r.spans {
			for _, o := range older {
				if sp.hi > sp.lo && o.overlaps(sp) {
					t.Fatalf("%s: run %d is new but aliases an older pack", label, i)
				}
			}
		}
	}
	check := func(what string, sk *ipsketch.Sketch, pack int) {
		ss := sampleSlices(sk)
		if len(ss) != 2 {
			t.Fatalf("%s: %s has %d slice fields, want 2", label, what, len(ss))
		}
		for i, s := range ss {
			sp, capped := spanOf(s)
			if !capped {
				t.Fatalf("%s: %s slice %d has cap %d > len %d", label, what, i, s.Cap(), s.Len())
			}
			in := false
			for _, r := range runs {
				in = in || r.spans[2*pack+i].holds(sp)
			}
			if !in {
				t.Fatalf("%s: %s slice %d does not lie in a run of its shard's current view", label, what, i)
			}
		}
	}
	for _, name := range ix.Tables() {
		e, _ := ix.Get(name)
		check(name+" key", e.KeySketch(), 0)
		for i, col := range e.Columns() {
			vs, err := e.ColumnSketch(col)
			if err != nil {
				t.Fatal(err)
			}
			check(name+"."+col, vs, 1)
			check(name+"."+col+"²", squaredSketch(e, i), 2)
		}
	}
}

// squaredSketch returns the x_{V²} sketch of a bundle's i-th column,
// which the bundle does not export.
func squaredSketch(e *ipsketch.TableSketch, i int) *ipsketch.Sketch {
	sq := reflect.ValueOf(e).Elem().FieldByName("sqVal").Index(i)
	return (*ipsketch.Sketch)(sq.UnsafePointer())
}

// aliasFixture sketches n tables of one or two columns under method.
func aliasFixture(t *testing.T, method ipsketch.Method, n int) []*ipsketch.TableSketch {
	t.Helper()
	ts, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: method, StorageWords: 60, Seed: 3}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(uint64(method) + 7)
	out := make([]*ipsketch.TableSketch, n)
	for j := range out {
		keys := make([]uint64, 40)
		cols := map[string][]float64{"v": make([]float64, len(keys))}
		if j%2 == 0 {
			cols["w"] = make([]float64, len(keys))
		}
		for i := range keys {
			keys[i] = uint64(i*(j%3+1) + j)
			for _, vals := range cols {
				vals[i] = rng.Norm()
			}
		}
		tab, err := ipsketch.NewTable(fmt.Sprintf("t%02d", j), keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		if out[j], err = ts.SketchTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCatalogViewsAliasCurrentPack: for every packed family, after Put,
// Merge, Delete, Restore, Load and Snapshot, every published sketch's
// sample is a capacity-capped view into one of its own shard's current
// runs — the packs are the one in-memory copy — and every run a publish
// rebuilt is a fresh copy that aliases no older pack, which the
// catalog's later publishes must never re-point; a run a publish did not
// rebuild is the previous run object.
func TestCatalogViewsAliasCurrentPack(t *testing.T) {
	for _, method := range []ipsketch.Method{ipsketch.MethodWMH, ipsketch.MethodMH, ipsketch.MethodKMV, ipsketch.MethodPS, ipsketch.MethodTS} {
		t.Run(method.String(), func(t *testing.T) {
			sks := aliasFixture(t, method, 12)
			// held keeps every index published so far alive, so an older
			// pack's memory cannot be reused by a newer one.
			var held []*ipsketch.SketchIndex
			check := func(step string, c *Catalog) {
				t.Helper()
				cur := map[uintptr]bool{}
				for i := range c.shards {
					for _, r := range packRuns(t, c.shards[i].ix.Load()) {
						cur[r.id] = true
					}
				}
				// The runs published before, and the packs of those no
				// current index holds.
				previous := map[uintptr]bool{}
				var older []span
				for _, ix := range held {
					for _, r := range packRuns(t, ix) {
						previous[r.id] = true
						if !cur[r.id] {
							older = append(older, r.spans...)
						}
					}
				}
				for i := range c.shards {
					ix := c.shards[i].ix.Load()
					requireAliasesPack(t, fmt.Sprintf("%s shard %d", step, i), ix, previous, older)
					held = append(held, ix)
				}
			}
			c := New(Options{Shards: 3})
			for _, sk := range sks[:10] {
				if err := c.Put(sk); err != nil {
					t.Fatal(err)
				}
				check("put "+sk.Name, c)
			}
			// A merge of an identical partial (every family merges a
			// sketch with itself) and a merge that creates its table.
			for _, sk := range []*ipsketch.TableSketch{sks[3], sks[10]} {
				if _, err := c.Merge(sk); err != nil {
					t.Fatal(err)
				}
				check("merge "+sk.Name, c)
			}
			if ok, err := c.Delete(sks[5].Name); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			check("delete", c)
			err := c.Restore(func(r *Restore) error {
				for _, mut := range []Mutation{
					{Op: MutationPut, Name: sks[11].Name, Sketch: sks[11]},
					{Op: MutationMerge, Name: sks[1].Name, Sketch: sks[1]},
					{Op: MutationDelete, Name: sks[2].Name},
				} {
					if _, _, err := r.Apply(mut); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check("restore", c)
			snap := c.Snapshot()
			requireAliasesPack(t, "snapshot", snap, nil, nil)
			path := filepath.Join(t.TempDir(), "snap.ipsk")
			if err := c.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded := New(Options{Shards: 3})
			if n, err := loaded.Load(path); err != nil || n != c.Len() {
				t.Fatalf("load: %d tables, %v", n, err)
			}
			check("load", loaded)
		})
	}
}

// TestCatalogAliasReusesUntouchedRuns: a write re-packs the run that
// holds its table, not the shard. In a one-shard catalog of 62 tables
// under WMH, MH and KMV, a Put, a Merge and a Delete of one table and a
// Put of a new name each rebuild the run that holds the name, and the
// runs after it up to where the cut is as before (requireRunsReused), and
// publish every other run as the same object as before; and after each
// the catalog ranks Float64bits-identically with a fresh index of its
// tables that packs nothing, under every RankBy.
func TestCatalogAliasReusesUntouchedRuns(t *testing.T) {
	for _, method := range []ipsketch.Method{ipsketch.MethodWMH, ipsketch.MethodMH, ipsketch.MethodKMV} {
		t.Run(method.String(), func(t *testing.T) {
			sks := aliasFixture(t, method, 63)
			fresh := sks[62]
			fresh.Name = "t30a" // a new name between t30 and t31
			c := New(Options{Shards: 1})
			for _, sk := range sks[:62] {
				if err := c.Put(sk); err != nil {
					t.Fatal(err)
				}
			}
			for _, step := range []struct {
				label string
				mut   Mutation
			}{
				{"put", Mutation{Op: MutationPut, Name: sks[20].Name, Sketch: sks[20]}},
				{"merge", Mutation{Op: MutationMerge, Name: sks[41].Name, Sketch: sks[41]}},
				{"delete", Mutation{Op: MutationDelete, Name: sks[10].Name}},
				{"put new", Mutation{Op: MutationPut, Name: fresh.Name, Sketch: fresh}},
			} {
				before := packRuns(t, c.shards[0].ix.Load())
				if len(before) < 4 {
					t.Fatalf("%s: %d runs in a 62-table shard, want several", step.label, len(before))
				}
				if _, _, err := c.Apply(step.mut); err != nil {
					t.Fatal(err)
				}
				requireRunsReused(t, step.label, step.mut.Op, step.mut.Name, before, packRuns(t, c.shards[0].ix.Load()))
				requireRanksAsUnpacked(t, step.label, c, sks[0])
			}
		})
	}
}

// requireRunsReused checks a publish that applied op to name against the
// runs before it: every run either is a run of before under the same
// names, the same object, or is new (packed by this publish); a run of
// before under the same names that does not hold name is never re-packed;
// and the new runs are consecutive, the first holding name unless op
// deleted it. The new
// runs are the one the name falls in and the ones after it up to where
// the boundary rule cuts as before: its neighbour when the name closes a
// run, more only when a run was cut at its length cap.
func requireRunsReused(t *testing.T, label string, op MutationOp, name string, before, after []packRun) {
	t.Helper()
	key := func(r packRun) string { return fmt.Sprint(r.names) }
	was, old := map[string]uintptr{}, map[uintptr]bool{}
	for _, r := range before {
		was[key(r)], old[r.id] = r.id, true
	}
	first, last, holder := -1, -1, -1
	for i, r := range after {
		id, same := was[key(r)]
		switch {
		case old[r.id] && (!same || id != r.id):
			t.Fatalf("%s: run %d %v is an old run under new names", label, i, r.names)
		case old[r.id]:
			continue
		case same && !slices.Contains(r.names, name):
			t.Fatalf("%s: run %d %v was re-packed although no table of it changed", label, i, r.names)
		}
		if first < 0 {
			first = i
		}
		last = i
		if slices.Contains(r.names, name) {
			holder = i
		}
	}
	if first < 0 {
		t.Fatalf("%s: no run was re-packed", label)
	}
	for _, r := range after[first : last+1] {
		if old[r.id] {
			t.Fatalf("%s: the re-packed runs %d..%d are not consecutive", label, first, last)
		}
	}
	if op != MutationDelete && holder != first {
		t.Fatalf("%s: %q is not in the first re-packed run", label, name)
	}
}

// requireRanksAsUnpacked checks that c ranks query's column "v" exactly as
// a fresh index of c's tables that packs nothing, under every RankBy.
func requireRanksAsUnpacked(t *testing.T, label string, c *Catalog, query *ipsketch.TableSketch) {
	t.Helper()
	plain := ipsketch.NewSketchIndex()
	for _, name := range c.Tables() {
		e, _ := c.Get(name)
		if err := plain.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
		q := ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: -1}
		got, stats, err := c.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Fallback != 0 {
			t.Fatalf("%s: the catalog scanned %d candidates decoded", label, stats.Fallback)
		}
		want, _, err := plain.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, got, want, fmt.Sprintf("%s, rank %d", label, by))
	}
}

// TestCatalogHeapHoldsOneCopy is the one-copy heap gate: a catalog of
// about 200 two-column WMH tables at 400 words holds at most 1.35× the
// bytes of its packed samples. A catalog that kept each decoded sketch's
// arrays beside the pack would hold about twice them. Not parallel: it
// reads the process heap.
func TestCatalogHeapHoldsOneCopy(t *testing.T) {
	const tables, rows = 200, 150
	ts, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 9}, fixtureKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(17)
	keys := make([]uint64, rows)
	cols := map[string][]float64{"v": make([]float64, rows), "w": make([]float64, rows)}
	c := New(Options{})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the builder pools' victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	for j := 0; j < tables; j++ {
		for i := range keys {
			keys[i] = uint64(j*rows/2 + i*3)
			cols["v"][i], cols["w"][i] = rng.Norm(), rng.Norm()
		}
		tab, err := ipsketch.NewTable(fmt.Sprintf("t%03d", j), keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(sk); err != nil {
			t.Fatal(err)
		}
	}
	held := heap() - base
	// The samples' bytes. A WMH sketch holds M pairs whatever its vector,
	// so a column's squared-value sketch is the size of its value sketch.
	bytesOf := func(sk *ipsketch.Sketch) int {
		n := 0
		for _, f := range sampleSlices(sk) {
			n += f.Len() * int(f.Type().Elem().Size())
		}
		return n
	}
	packed := 0
	for _, name := range c.Tables() {
		e, _ := c.Get(name)
		packed += bytesOf(e.KeySketch())
		for _, col := range e.Columns() {
			v, err := e.ColumnSketch(col)
			if err != nil {
				t.Fatal(err)
			}
			packed += 2 * bytesOf(v)
		}
	}
	ratio := float64(held) / float64(packed)
	t.Logf("catalog heap %.2f MB for %.2f MB of packed samples: %.2f×", float64(held)/1e6, float64(packed)/1e6, ratio)
	if ratio > 1.35 {
		t.Fatalf("catalog holds %.2f× its packed sample bytes, want ≤ 1.35×", ratio)
	}
	runtime.KeepAlive(c)
}
