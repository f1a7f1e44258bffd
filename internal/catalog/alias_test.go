package catalog

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
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

// packSpans returns the full tag and value arrays of an index's key,
// value and squared-value packs (reflection reads what the index does
// not export), or nil for an index without a pack.
func packSpans(t *testing.T, ix *ipsketch.SketchIndex) []span {
	t.Helper()
	v := reflect.ValueOf(ix).Elem().FieldByName("view")
	if v.IsNil() {
		return nil
	}
	pk := v.Elem().FieldByName("pk").Elem().Elem()
	var out []span
	for _, name := range []string{"keys", "vals", "sqs"} {
		cols := pk.FieldByName(name)
		for _, arr := range []string{"tags", "vals"} {
			a := cols.FieldByName(arr)
			lo := a.Pointer()
			out = append(out, span{lo, lo + uintptr(a.Cap())*a.Type().Elem().Size()})
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
// tag and value slices lies inside ix's own pack (the key, value or
// squared-value pack as the sketch is), ends at its capacity, and touches
// none of the older packs.
func requireAliasesPack(t *testing.T, label string, ix *ipsketch.SketchIndex, older []span) {
	t.Helper()
	cur := packSpans(t, ix)
	if ix.Len() > 0 && cur == nil {
		t.Fatalf("%s: a non-empty published index has no pack", label)
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
			if !cur[2*pack+i].holds(sp) {
				t.Fatalf("%s: %s slice %d does not lie in its shard's current pack", label, what, i)
			}
			for _, o := range older {
				if s.Len() > 0 && o.overlaps(sp) {
					t.Fatalf("%s: %s slice %d aliases an older pack", label, what, i)
				}
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
// sample is a capacity-capped view into its own shard's current pack —
// the pack is the one in-memory copy — and none aliases an older pack,
// which the catalog's later publishes must never re-point.
func TestCatalogViewsAliasCurrentPack(t *testing.T) {
	for _, method := range []ipsketch.Method{ipsketch.MethodWMH, ipsketch.MethodMH, ipsketch.MethodKMV, ipsketch.MethodPS, ipsketch.MethodTS} {
		t.Run(method.String(), func(t *testing.T) {
			sks := aliasFixture(t, method, 12)
			// held keeps every index published so far alive, so an older
			// pack's memory cannot be reused by a newer one.
			var held []*ipsketch.SketchIndex
			check := func(step string, c *Catalog) {
				t.Helper()
				var older []span
				cur := map[*ipsketch.SketchIndex]bool{}
				for i := range c.shards {
					cur[c.shards[i].ix.Load()] = true
				}
				for _, ix := range held {
					if !cur[ix] {
						older = append(older, packSpans(t, ix)...)
					}
				}
				for i := range c.shards {
					ix := c.shards[i].ix.Load()
					requireAliasesPack(t, fmt.Sprintf("%s shard %d", step, i), ix, older)
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
			requireAliasesPack(t, "snapshot", snap, nil)
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
