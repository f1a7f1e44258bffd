package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	ipsketch "repro"
	"repro/internal/hashing"
	"repro/service"
	"repro/service/client"
)

var testSketchCfg = ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 300, Seed: 21}

const testKeySpace = 1 << 20

// newTestServer starts an httptest server plus a client against it.
func newTestServer(t testing.TB, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	if cfg.Sketch.StorageWords == 0 {
		cfg.Sketch = testSketchCfg
		cfg.KeySpace = testKeySpace
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl
}

// lakePayloads builds n raw-column table payloads with overlapping keys.
func lakePayloads(t testing.TB, n int) (service.TablePayload, map[string]service.TablePayload) {
	t.Helper()
	rng := hashing.NewSplitMix64(5)
	const rows = 100
	qKeys := make([]uint64, rows)
	qVals := make([]float64, rows)
	for i := range qKeys {
		qKeys[i] = uint64(i)
		qVals[i] = rng.Norm()
	}
	query := service.TablePayload{Keys: qKeys, Columns: map[string][]float64{"v": qVals}}
	lake := make(map[string]service.TablePayload, n)
	for j := 0; j < n; j++ {
		keys := make([]uint64, rows/2)
		vals := make([]float64, rows/2)
		for i := range keys {
			keys[i] = uint64(i*(j%4+1) + j)
			vals[i] = 0.2*float64(j%5)*qVals[int(keys[i])%rows] + rng.Norm()
		}
		lake[fmt.Sprintf("t%02d", j)] = service.TablePayload{Keys: keys, Columns: map[string][]float64{"v": vals}}
	}
	return query, lake
}

// referenceIndex sketches the payloads in-process into a name-sorted
// index — the ground truth the HTTP path must match bit-exactly.
func referenceIndex(t testing.TB, lake map[string]service.TablePayload) (*ipsketch.TableSketcher, *ipsketch.SketchIndex) {
	t.Helper()
	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(lake))
	for name := range lake {
		names = append(names, name)
	}
	// Name-sorted insertion = the catalog's canonical scan order.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	ix := ipsketch.NewSketchIndex()
	for _, name := range names {
		p := lake[name]
		tab, err := ipsketch.NewTable(name, p.Keys, p.Columns)
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
	return ts, ix
}

func resultsIdentical(a, b ipsketch.SearchResult) bool {
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

func requireSameRanking(t *testing.T, got, want []ipsketch.SearchResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("%s: rank %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestServiceSearchMatchesInProcess: the full HTTP loop — JSON ingest,
// server-side sketching, sharded search, JSON response — must reproduce
// the in-process Search ranking bit-exactly, for both inline-columns
// and pre-built-sketch queries.
func TestServiceSearchMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{})
	query, lake := lakePayloads(t, 12)
	for name, p := range lake {
		resp, err := cl.PutTable(ctx, name, p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Table != name || len(resp.Columns) != 1 || resp.Columns[0] != "v" {
			t.Fatalf("put response %+v", resp)
		}
	}
	ts, ref := referenceIndex(t, lake)
	qTab, err := ipsketch.NewTable("query", query.Keys, query.Columns)
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qTab)
	if err != nil {
		t.Fatal(err)
	}

	for _, rankBy := range []string{"join_size", "abs_correlation", "abs_inner_product"} {
		by, err := service.ParseRankBy(rankBy)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 5, len(lake), len(lake) * 3, -1} {
			want, _, err := ref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
			if err != nil {
				t.Fatal(err)
			}
			req := service.SearchRequest{Table: &query, Column: "v", RankBy: rankBy, MinJoin: 1}
			if k >= 0 {
				kk := k
				req.K = &kk
			}
			got, err := cl.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, got, want, fmt.Sprintf("by=%s k=%d", rankBy, k))

			// Pre-built query sketch path must agree too.
			got2, err := cl.SearchSketch(ctx, ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, got2, want, fmt.Sprintf("sketch query by=%s k=%d", rankBy, k))
		}

		// An inline query sketches only the column it ranks on, so an extra
		// column in the payload changes no hit.
		wide := query
		wide.Columns = map[string][]float64{"v": query.Columns["v"], "extra": make([]float64, len(query.Keys))}
		want, _, err := ref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Search(ctx, service.SearchRequest{Table: &wide, Column: "v", RankBy: rankBy, MinJoin: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, got, want, "extra column by="+rankBy)
	}
	// A ranked column the payload lacks stays a 400.
	_, err = cl.Search(ctx, service.SearchRequest{Table: &query, Column: "missing", RankBy: "join_size"})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
		t.Fatalf("query column missing from the payload: err = %v, want a 400", err)
	}

	// Self-exclusion goes by the name the request gives, also when the
	// query payload is aggregated (which renames the table underneath).
	twice := service.TablePayload{
		Keys:    append(append([]uint64(nil), query.Keys...), query.Keys...),
		Columns: map[string][]float64{"v": append(append([]float64(nil), query.Columns["v"]...), query.Columns["v"]...)},
		Agg:     "mean",
	}
	if _, err := cl.PutTable(ctx, "self", query); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tableName string
		wantSelf  bool
	}{{"", true}, {"self", false}} {
		got, err := cl.Search(ctx, service.SearchRequest{Table: &twice, TableName: tc.tableName, Column: "v", RankBy: "join_size"})
		if err != nil {
			t.Fatal(err)
		}
		hasSelf := false
		for _, r := range got {
			hasSelf = hasSelf || r.Table == "self"
		}
		if hasSelf != tc.wantSelf {
			t.Fatalf("aggregated query with table_name %q: own table listed = %v, want %v", tc.tableName, hasSelf, tc.wantSelf)
		}
	}
}

// TestServiceSearchRejectsNegativeK: an explicit negative k is a 400,
// while an omitted k still returns the full ranking.
func TestServiceSearchRejectsNegativeK(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{})
	query, lake := lakePayloads(t, 4)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	k := -7
	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", K: &k}
	_, err := cl.Search(ctx, req)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
		t.Fatalf("k=-7: err = %v, want a 400", err)
	}
	req.K = nil
	got, err := cl.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lake) {
		t.Fatalf("omitted k: %d results, want all %d", len(got), len(lake))
	}
}

// TestServicePutSketchAndEstimate: octet-stream ingest of pre-built
// bundles, pairwise estimation, and deletion.
func TestServicePutSketchAndEstimate(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{})
	_, lake := lakePayloads(t, 4)
	ts, _ := referenceIndex(t, lake)

	for name, p := range lake {
		tab, err := ipsketch.NewTable(name, p.Keys, p.Columns)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.PutSketch(ctx, name, sk); err != nil {
			t.Fatal(err)
		}
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Tables != len(lake) {
		t.Fatalf("health %+v", h)
	}

	// Estimate against the in-process ground truth.
	a, _ := referenceTable(t, lake, "t00")
	b, _ := referenceTable(t, lake, "t01")
	skA, err := ts.SketchTable(a)
	if err != nil {
		t.Fatal(err)
	}
	skB, err := ts.SketchTable(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ipsketch.EstimateJoinStats(skA, "v", skB, "v")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Estimate(ctx, service.EstimateRequest{TableA: "t00", ColumnA: "v", TableB: "t01", ColumnB: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(ipsketch.SearchResult{Stats: got}, ipsketch.SearchResult{Stats: want}) {
		t.Fatalf("estimate %+v vs %+v", got, want)
	}

	// Estimating a missing table 404s.
	if _, err := cl.Estimate(ctx, service.EstimateRequest{TableA: "nope", ColumnA: "v", TableB: "t01", ColumnB: "v"}); err == nil {
		t.Fatal("estimate against missing table succeeded")
	}

	// Delete is acknowledged and idempotent.
	removed, err := cl.DeleteTable(ctx, "t00")
	if err != nil || !removed {
		t.Fatalf("delete: %v removed=%v", err, removed)
	}
	removed, err = cl.DeleteTable(ctx, "t00")
	if err != nil || removed {
		t.Fatalf("re-delete: %v removed=%v", err, removed)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != len(lake)-1 || st.Puts != int64(len(lake)) || st.Deletes != 1 || st.Estimates != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func referenceTable(t *testing.T, lake map[string]service.TablePayload, name string) (*ipsketch.Table, service.TablePayload) {
	t.Helper()
	p, ok := lake[name]
	if !ok {
		t.Fatalf("no payload %q", name)
	}
	tab, err := ipsketch.NewTable(name, p.Keys, p.Columns)
	if err != nil {
		t.Fatal(err)
	}
	return tab, p
}

// TestServiceIngestValidation: hostile and malformed ingests are rejected
// with 4xx JSON errors.
func TestServiceIngestValidation(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{})

	// Duplicate keys without agg are rejected; with agg they aggregate.
	dup := service.TablePayload{Keys: []uint64{1, 1, 2}, Columns: map[string][]float64{"v": {1, 2, 3}}}
	if _, err := cl.PutTable(ctx, "dup", dup); err == nil {
		t.Fatal("duplicate keys accepted without agg")
	}
	dup.Agg = "sum"
	if _, err := cl.PutTable(ctx, "dup", dup); err != nil {
		t.Fatal(err)
	}
	// An aggregated table is cataloged under the path name like any other
	// (on an MH server, whose partials merge freely): /estimate finds it, a
	// plain and an aggregated partition merge into the one table /statsz
	// counts, and DELETE removes it.
	srv, mcl := newTestServer(t, service.Config{
		Sketch:   ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 11},
		KeySpace: testKeySpace,
	})
	if resp, err := mcl.PutTable(ctx, "dup", dup); err != nil {
		t.Fatal(err)
	} else if resp.Table != "dup" {
		t.Fatalf("aggregated PUT /tables/dup answered for table %q", resp.Table)
	}
	if _, err := mcl.Estimate(ctx, service.EstimateRequest{TableA: "dup", ColumnA: "v", TableB: "dup", ColumnB: "v"}); err != nil {
		t.Fatalf("estimate on the aggregated table: %v", err)
	}
	plain := service.TablePayload{Keys: []uint64{7, 8}, Columns: map[string][]float64{"v": {1, 2}}}
	for _, part := range []service.TablePayload{plain, {Keys: []uint64{9, 9}, Columns: plain.Columns, Agg: "sum"}} {
		if resp, err := mcl.MergeTable(ctx, "dup", part); err != nil {
			t.Fatal(err)
		} else if resp.Table != "dup" || !resp.Merged {
			t.Fatalf("merge into the aggregated table answered %+v", resp)
		}
	}
	if st, err := mcl.Stats(ctx); err != nil {
		t.Fatal(err)
	} else if names := srv.Catalog().Tables(); st.Tables != 1 || len(names) != 1 || names[0] != "dup" {
		t.Fatalf("/statsz counts %d tables, catalog holds %v, want [dup]", st.Tables, names)
	}
	if removed, err := mcl.DeleteTable(ctx, "dup"); err != nil || !removed {
		t.Fatalf("DELETE /tables/dup: removed=%v err=%v", removed, err)
	}
	dup.Agg = "frobnicate"
	if _, err := cl.PutTable(ctx, "dup", dup); err == nil {
		t.Fatal("unknown agg accepted")
	}

	// A value whose square overflows the column norms is a 400 on every
	// raw-columns path: PUT, merge and an inline /search query.
	for _, v := range []float64{1e100, 1e160} {
		huge := service.TablePayload{Keys: []uint64{1, 2}, Columns: map[string][]float64{"v": {1, v}}}
		var ce *client.Error
		if _, err := cl.PutTable(ctx, "huge", huge); !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("PUT with value %g: err = %v, want a 400", v, err)
		}
		if _, err := cl.MergeTable(ctx, "huge", huge); !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("merge with value %g: err = %v, want a 400", v, err)
		}
		if _, err := cl.Search(ctx, service.SearchRequest{Table: &huge, Column: "v"}); !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("search with value %g: err = %v, want a 400", v, err)
		}
	}

	// Both or neither key representation is rejected.
	if _, err := cl.PutTable(ctx, "x", service.TablePayload{Columns: map[string][]float64{"v": {}}}); err == nil {
		t.Fatal("payload without keys accepted")
	}
	both := service.TablePayload{Keys: []uint64{1}, StringKeys: []string{"a"}, Columns: map[string][]float64{"v": {1}}}
	if _, err := cl.PutTable(ctx, "x", both); err == nil {
		t.Fatal("payload with both key kinds accepted")
	}

	// String keys work (under the default key space).
	_, cl2 := newTestServer(t, service.Config{Sketch: testSketchCfg})
	sp := service.TablePayload{StringKeys: []string{"a", "b", "c"}, Columns: map[string][]float64{"v": {1, 2, 3}}}
	if _, err := cl2.PutTable(ctx, "strs", sp); err != nil {
		t.Fatal(err)
	}

	// A mismatched pre-built sketch is rejected by the strict catalog.
	other, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 300, Seed: 99}, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("alien", []uint64{1, 2}, map[string][]float64{"v": {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	alien, err := other.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutSketch(ctx, "alien", alien); err == nil {
		t.Fatal("mismatched sketch accepted by strict catalog")
	} else if !strings.Contains(err.Error(), "incompatible") && !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatch error does not explain itself: %v", err)
	}

	// Unknown rank_by is rejected.
	q := service.TablePayload{Keys: []uint64{1}, Columns: map[string][]float64{"v": {1}}}
	if _, err := cl.Search(ctx, service.SearchRequest{Table: &q, Column: "v", RankBy: "bogus"}); err == nil {
		t.Fatal("bogus rank_by accepted")
	}
}

// TestServiceDuplicateKeysAggregate: duplicate keys are found while the
// table is sketched, not by a separate pass, so a raw PUT and an inline
// search with duplicates plus agg must sketch exactly the aggregated table,
// and without agg both stay a 400 that says to set one.
func TestServiceDuplicateKeysAggregate(t *testing.T) {
	ctx := context.Background()
	srv, cl := newTestServer(t, service.Config{})
	dup := service.TablePayload{
		Keys:    []uint64{5, 3, 5, 9, 3, 5},
		Columns: map[string][]float64{"v": {1, 2, 4, 8, 16, 32}, "w": {0, 1, 0, 2, 0, 3}},
		Agg:     "max",
	}
	if _, err := cl.PutTable(ctx, "dup", dup); err != nil {
		t.Fatal(err)
	}
	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ipsketch.NewTable("dup", []uint64{3, 5, 9}, map[string][]float64{"v": {16, 32, 8}, "w": {1, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.SketchTable(agg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := srv.Catalog().Get("dup")
	if !ok {
		t.Fatal("aggregated table not cataloged under its path name")
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("PUT with duplicates and agg cataloged a different sketch than the aggregated table's")
	}

	// The inline query ranks exactly as the pre-aggregated table does.
	plain := service.TablePayload{Keys: []uint64{3, 5, 9}, Columns: map[string][]float64{"v": {16, 32, 8}}}
	wantHits, err := cl.Search(ctx, service.SearchRequest{Table: &plain, Column: "v", RankBy: "join_size"})
	if err != nil {
		t.Fatal(err)
	}
	gotHits, err := cl.Search(ctx, service.SearchRequest{Table: &dup, Column: "v", RankBy: "join_size"})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotHits) == 0 || fmt.Sprint(gotHits) != fmt.Sprint(wantHits) {
		t.Fatalf("inline search with duplicates and agg: %+v, want %+v", gotHits, wantHits)
	}

	dup.Agg = ""
	var ce *client.Error
	if _, err := cl.PutTable(ctx, "dup2", dup); !errors.As(err, &ce) || ce.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "set agg") {
		t.Fatalf("PUT with duplicates and no agg: err = %v, want a 400 asking for agg", err)
	}
	if _, err := cl.Search(ctx, service.SearchRequest{Table: &dup, Column: "v", RankBy: "join_size"}); !errors.As(err, &ce) || ce.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "set agg") {
		t.Fatalf("search with duplicates and no agg: err = %v, want a 400 asking for agg", err)
	}
}

// TestServiceSnapshotEndpoint: POST /snapshot persists, a fresh server
// restores, and the restored rankings are bit-exact.
func TestServiceSnapshotEndpoint(t *testing.T) {
	ctx := context.Background()
	snap := filepath.Join(t.TempDir(), "cat.ipsx")
	srv, cl := newTestServer(t, service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, SnapshotPath: snap})
	query, lake := lakePayloads(t, 6)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tables != len(lake) || resp.Path != snap {
		t.Fatalf("snapshot response %+v", resp)
	}
	before, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_correlation"})
	if err != nil {
		t.Fatal(err)
	}
	_ = srv

	// Fresh server, same snapshot path.
	srv2, cl2 := newTestServer(t, service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, SnapshotPath: snap, Shards: 5})
	n, err := srv2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(lake) {
		t.Fatalf("restored %d tables, want %d", n, len(lake))
	}
	after, err := cl2.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_correlation"})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRanking(t, after, before, "snapshot restore")

	// Without a snapshot path the endpoint refuses.
	_, cl3 := newTestServer(t, service.Config{})
	if _, err := cl3.Snapshot(ctx); err == nil {
		t.Fatal("snapshot without a path succeeded")
	}
}

// TestServiceConcurrentIngestAndSearch: concurrent HTTP ingest and search
// with no lost updates (run under -race in CI).
func TestServiceConcurrentIngestAndSearch(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, IngestLimit: 4, SearchLimit: 4})
	query, lake := lakePayloads(t, 32)
	names := make([]string, 0, len(lake))
	for name := range lake {
		names = append(names, name)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 4; i < (w+1)*4; i++ {
				if _, err := cl.PutTable(ctx, names[i], lake[names[i]]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := 5
			for i := 0; i < 10; i++ {
				if _, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", K: &k}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tables != len(lake) {
		t.Fatalf("tables after concurrent ingest = %d, want %d", h.Tables, len(lake))
	}
}

// TestFloatJSON: the NaN-safe float round-trips bit-exactly.
func TestFloatJSON(t *testing.T) {
	for _, v := range []float64{0, 1, -1.5, math.Pi, 1e-308, -1e308, math.NaN(), math.Inf(1)} {
		enc, err := json.Marshal(service.Float(v))
		if err != nil {
			t.Fatal(err)
		}
		var dec service.Float
		if err := json.Unmarshal(enc, &dec); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if !math.IsNaN(float64(dec)) {
				t.Fatalf("%v -> %s -> %v, want NaN", v, enc, float64(dec))
			}
			continue
		}
		if math.Float64bits(float64(dec)) != math.Float64bits(v) {
			t.Fatalf("%v -> %s -> %v not bit-exact", v, enc, float64(dec))
		}
	}
}

// TestServiceMergeEndpoint: partials pushed through POST
// /tables/{name}/merge — as raw JSON columns and as pre-built bundles —
// roll up to exactly the single-ingest sketch, and the merges counter
// moves.
func TestServiceMergeEndpoint(t *testing.T) {
	cfg := service.Config{
		Sketch:   ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 11},
		KeySpace: testKeySpace,
		Shards:   4,
	}
	srv, cl := newTestServer(t, cfg)
	ctx := context.Background()

	const rows = 80
	keys := make([]uint64, rows)
	vals := make([]float64, rows)
	for i := range keys {
		keys[i] = uint64(i*5 + 2)
		vals[i] = float64(i%9 + 1)
	}
	half := rows / 2
	p1 := service.TablePayload{Keys: keys[:half], Columns: map[string][]float64{"v": vals[:half]}}

	// Partial 1 as raw columns (sketched server-side).
	r1, err := cl.MergeTable(ctx, "t", p1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Merged {
		t.Fatal("first partial reported as merged into an existing sketch")
	}
	// Partial 2 as a pre-built bundle (sketched client-side).
	ts, err := ipsketch.NewTableSketcher(cfg.Sketch, cfg.KeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := ipsketch.NewTable("t", keys[half:], map[string][]float64{"v": vals[half:]})
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := ts.SketchTable(tab2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.MergeSketch(ctx, "t", sk2)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Merged {
		t.Fatal("second partial did not merge")
	}

	// The cataloged sketch must be byte-identical to single ingest.
	full, err := ipsketch.NewTable("t", keys, map[string][]float64{"v": vals})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.SketchTable(full)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := srv.Catalog().Get("t")
	if !ok {
		t.Fatal("merged table missing from catalog")
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("merged partials differ from single ingest")
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Merges != 2 {
		t.Fatalf("merges counter = %d, want 2", st.Merges)
	}

	// Incompatible partials are rejected with a client-visible error.
	otherTS, err := ipsketch.NewTableSketcher(
		ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 99}, cfg.KeySpace)
	if err != nil {
		t.Fatal(err)
	}
	badSk, err := otherTS.SketchTable(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MergeSketch(ctx, "t", badSk); err == nil {
		t.Fatal("incompatible partial accepted")
	}
}

// TestServiceBuildInfo: /healthz and /statsz carry the build block.
func TestServiceBuildInfo(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, service.Config{})
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Build == nil || h.Build.Version == "" {
		t.Fatalf("healthz build block %+v", h.Build)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Build == nil || st.Build.Version != h.Build.Version {
		t.Fatalf("statsz build block %+v, healthz %+v", st.Build, h.Build)
	}
}
