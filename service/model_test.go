package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	ipsketch "repro"
	"repro/internal/catalog"
	"repro/internal/hashing"
	"repro/internal/wal"
	"repro/service"
)

// TestServiceWALRestartMatchesModel runs seeded Put/Merge/Delete
// sequences, with searches, snapshots and restarts in between, through a
// WAL-backed server — Catalog().Apply, and the merge endpoint for a tagged
// merge — so that the server's own hook logs every write. A restart closes
// the log, reopens it, and boots a new server from the last snapshot plus
// the log tail. After every step the catalog must hold exactly a plain
// name → bytes model's tables and rank exactly like a fresh decoded index
// over it, and after every restart each tagged merge so far, in the
// replayed tail or checkpointed by a snapshot, must answer its key with
// the response its live application described. Each sequence ends with a
// tagged merge, a snapshot and a restart.
func TestServiceWALRestartMatchesModel(t *testing.T) {
	for _, shards := range []int{1, 16} {
		for _, seed := range []uint64{1, 2} {
			runServiceModel(t, fmt.Sprintf("shards=%d seed=%d", shards, seed), shards, seed)
		}
	}
}

// serviceModel is the reference: each table's marshaled bytes, merged
// through TableSketch.Merge on decoded copies.
type serviceModel map[string][]byte

func (m serviceModel) decode(t *testing.T, name string) *ipsketch.TableSketch {
	t.Helper()
	ts, err := ipsketch.UnmarshalTableSketch(m[name])
	if err != nil {
		t.Fatalf("model %s: %v", name, err)
	}
	return ts
}

func (m serviceModel) put(t *testing.T, ts *ipsketch.TableSketch) {
	t.Helper()
	b, err := ts.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m[ts.Name] = b
}

func (m serviceModel) names() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// requireServerMatchesModel checks the server's catalog against the
// model: the same tables, Get returning the model's bytes, and every
// RankBy (plus extra, when set) ranking Float64bits-equal to a fresh
// decoded index over the model.
func requireServerMatchesModel(t *testing.T, label string, srv *service.Server, m serviceModel, query *ipsketch.TableSketch, extra *ipsketch.Query) {
	t.Helper()
	cat := srv.Catalog()
	names := m.names()
	if got := cat.Tables(); !slices.Equal(got, names) {
		t.Fatalf("%s: tables %v, model %v", label, got, names)
	}
	ref := ipsketch.NewSketchIndex()
	for _, name := range names {
		ts, ok := cat.Get(name)
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
		if err := ref.Add(m.decode(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	var queries []ipsketch.Query
	for _, by := range []ipsketch.RankBy{ipsketch.RankByJoinSize, ipsketch.RankByAbsCorrelation, ipsketch.RankByAbsInnerProduct} {
		queries = append(queries, ipsketch.Query{Sketch: query, Column: "v", RankBy: by, K: -1})
	}
	if extra != nil {
		queries = append(queries, *extra)
	}
	for _, q := range queries {
		want, _, err := ref.Search(q)
		if err != nil {
			t.Fatalf("%s: model search: %v", label, err)
		}
		got, _, err := cat.Search(q)
		if err != nil {
			t.Fatalf("%s: catalog search: %v", label, err)
		}
		requireSameRanking(t, got, want, fmt.Sprintf("%s: by=%d k=%d min=%v", label, q.RankBy, q.K, q.MinJoinSize))
	}
}

// apply applies one mutation to the model and reports whether its table
// was there before.
func (m serviceModel) apply(t *testing.T, mut catalog.Mutation) bool {
	t.Helper()
	_, existed := m[mut.Name]
	switch {
	case mut.Op == catalog.MutationDelete:
		delete(m, mut.Name)
	case mut.Op == catalog.MutationMerge && existed:
		merged, err := m.decode(t, mut.Name).Merge(mut.Sketch)
		if err != nil {
			t.Fatalf("model merge %s: %v", mut.Name, err)
		}
		m.put(t, merged)
	default:
		m.put(t, mut.Sketch)
	}
	return existed
}

// postMerge applies a tagged merge through the server's merge endpoint
// and returns its response, which must be a fresh application.
func postMerge(t *testing.T, label, base string, mut catalog.Mutation) service.MergeResponse {
	t.Helper()
	body, err := mut.Sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/tables/"+mut.Name+"/merge", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(service.HeaderIdempotencyKey, mut.Tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(service.HeaderIdempotentReplay) != "" {
		t.Fatalf("%s: merge answered %d (replay %q), want a fresh application", label, resp.StatusCode, resp.Header.Get(service.HeaderIdempotentReplay))
	}
	var got service.MergeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

// requireCachedMerge asks the server for key's merge with a body that
// cannot decode, so only an answer from the dedupe cache succeeds, and
// checks that answer against want.
func requireCachedMerge(t *testing.T, label, base, key string, want service.MergeResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/tables/"+want.Table+"/merge", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(service.HeaderIdempotentReplay) != "true" {
		t.Fatalf("%s: key %s answered %d (replay %q), want a cached response", label, key, resp.StatusCode, resp.Header.Get(service.HeaderIdempotentReplay))
	}
	var got service.MergeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Table != want.Table || got.Merged != want.Merged || !slices.Equal(got.Columns, want.Columns) ||
		math.Float64bits(float64(got.StorageWords)) != math.Float64bits(float64(want.StorageWords)) {
		t.Fatalf("%s: key %s answered %+v, live %+v", label, key, got, want)
	}
}

func runServiceModel(t *testing.T, label string, shards int, seed uint64) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace, Shards: shards,
		SnapshotPath: filepath.Join(dir, "cat.ipsx")}
	sketcher, err := ipsketch.NewTableSketcher(mergeSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(seed)
	sketch := func(name string, rows int) *ipsketch.TableSketch {
		keys := make([]uint64, rows)
		cols := map[string][]float64{"v": make([]float64, rows)}
		if rng.Intn(3) == 0 {
			cols["w"] = make([]float64, rows)
		}
		next := uint64(0)
		for i := range keys {
			next += 1 + uint64(rng.Intn(4))
			keys[i] = next
			for _, vals := range cols {
				vals[i] = rng.Norm()
			}
		}
		tab, err := ipsketch.NewTable(name, keys, cols)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := sketcher.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	query := sketch("query", 150)

	// boot opens the log and starts a server on it: the last snapshot, if
	// any, then the log tail, as the daemon boots.
	var (
		log   *wal.Log
		srv   *service.Server
		hs    *httptest.Server
		saved bool
	)
	boot := func(step string) {
		t.Helper()
		var err error
		if log, err = wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNone, SegmentBytes: 16 << 10}); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		cfg.WAL = log
		if srv, err = service.New(cfg); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if saved {
			if _, err := srv.LoadSnapshot(); err != nil {
				t.Fatalf("%s: load snapshot: %v", step, err)
			}
		}
		if _, err := srv.ReplayWAL(); err != nil {
			t.Fatalf("%s: replay: %v", step, err)
		}
		hs = httptest.NewServer(srv.Handler())
	}
	boot(label + " boot")
	defer func() {
		hs.Close()
		log.Close()
	}()

	model := serviceModel{}
	// tagged holds the live response of every tagged merge.
	tagged := map[string]service.MergeResponse{}
	var restarts, snapshots, checked int
	restart := func(step string) {
		t.Helper()
		hs.Close()
		if err := log.Close(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		boot(step)
		restarts++
		for key, want := range tagged {
			requireCachedMerge(t, step, hs.URL, key, want)
			checked++
		}
	}
	// apply applies mut to the model and to the server: a tagged merge
	// through the merge endpoint, every other write through Apply.
	apply := func(step string, mut catalog.Mutation) {
		t.Helper()
		want := model.apply(t, mut)
		if mut.Tag != "" {
			got := postMerge(t, step, hs.URL, mut)
			// The response describes the model's table.
			sk := model.decode(t, mut.Name)
			if got.Table != mut.Name || got.Merged != want || !slices.Equal(got.Columns, sk.Columns()) ||
				math.Float64bits(float64(got.StorageWords)) != math.Float64bits(sk.StorageWords()) {
				t.Fatalf("%s: merge answered %+v, model table %v merged=%v", step, got, sk.Columns(), want)
			}
			tagged[mut.Tag] = got
			return
		}
		_, got, err := srv.Catalog().Apply(mut)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got != want {
			t.Fatalf("%s: catalog reported %v, model %v", step, got, want)
		}
	}
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("n%02d", rng.Intn(12))
		step := fmt.Sprintf("%s step %d", label, i)
		var mut *catalog.Mutation
		switch r := rng.Intn(20); {
		case r == 0:
			step += " (snapshot)"
			if err := srv.SaveSnapshot(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			saved = true
			snapshots++
		case r <= 2:
			step += " (restart)"
			restart(step)
		case r <= 6:
			mut = &catalog.Mutation{Op: catalog.MutationDelete, Name: name}
		case r <= 11:
			mut = &catalog.Mutation{Op: catalog.MutationPut, Name: name, Sketch: sketch(name, 40+rng.Intn(60))}
		default:
			mut = &catalog.Mutation{Op: catalog.MutationMerge, Name: name, Sketch: sketch(name, 40+rng.Intn(60))}
			if rng.Intn(2) == 0 {
				mut.Tag = fmt.Sprintf("key-%d-%d", seed, i)
			}
		}
		if mut != nil {
			step += fmt.Sprintf(" (op %d %s tag %q)", mut.Op, name, mut.Tag)
			apply(step, *mut)
		}
		var extra *ipsketch.Query
		if rng.Intn(3) == 0 {
			// A search of its own: random ranking, bound and join floor.
			extra = &ipsketch.Query{Sketch: query, Column: "v", RankBy: ipsketch.RankBy(rng.Intn(3)),
				K: rng.Intn(6) - 1, MinJoinSize: float64(rng.Intn(3)) * 10}
		}
		requireServerMatchesModel(t, step, srv, model, query, extra)
	}
	// A tagged merge that a snapshot checkpoints away from the log: after
	// the restart its retry is answered from the cache, and the table is
	// the model's.
	name := model.names()[0]
	step := fmt.Sprintf("%s final merge of %s", label, name)
	apply(step, catalog.Mutation{Op: catalog.MutationMerge, Name: name, Sketch: sketch(name, 50), Tag: fmt.Sprintf("key-%d-final", seed)})
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	saved = true
	restart(step + ", snapshot and restart")
	requireServerMatchesModel(t, step, srv, model, query, nil)
	if restarts == 0 || snapshots == 0 || checked == 0 || len(model) < 4 {
		t.Fatalf("%s: sequence exercises too little: %d restarts, %d snapshots, %d cached merges checked, %d tables",
			label, restarts, snapshots, checked, len(model))
	}
}
