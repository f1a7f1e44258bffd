package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	ipsketch "repro"
	"repro/service"
	"repro/service/client"
)

// lshTestCfg bands aggressively (threshold ≈ 0.016) so recall over the
// overlapping fixture lake is 1 and lsh-mode results must be
// bit-identical to the full scan.
func lshTestCfg() service.Config {
	return service.Config{
		Sketch:   testSketchCfg,
		KeySpace: testKeySpace,
		LSHBands: 64,
		LSHRows:  1,
	}
}

// TestServiceLSHSearchMatchesFull: end to end over HTTP, mode=lsh equals
// mode=full bit-exactly at full recall, and /statsz + /metrics carry the
// candidate-stage counters.
func TestServiceLSHSearchMatchesFull(t *testing.T) {
	ctx := context.Background()
	_, cl := newTestServer(t, lshTestCfg())
	query, lake := lakePayloads(t, 12)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := referenceIndex(t, lake)
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
		for _, k := range []int{1, 5, -1} {
			want, err := cl.SearchSketch(ctx, ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.SearchSketch(ctx, ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, MinJoinSize: 1, K: k, LSH: true})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, got, want, fmt.Sprintf("lsh by=%s k=%d", rankBy, k))
		}
	}

	// An explicit probe budget is honored. Probing every band is the
	// full scan by construction. Probing 4 of them can miss a table (each
	// band misses with probability 1−J, so all four with (1−J)⁴), but every
	// table it does find is rescored exactly as the full scan scores it.
	search := func(q ipsketch.Query) []ipsketch.SearchResult {
		q.Sketch, q.Column, q.RankBy, q.MinJoinSize = qSk, "v", ipsketch.RankByJoinSize, 1
		res, err := cl.SearchSketch(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := search(ipsketch.Query{K: -1})
	requireSameRanking(t, search(ipsketch.Query{K: -1, LSH: true, Probes: lshTestCfg().LSHBands}), full, "probes=Bands")
	for _, hit := range search(ipsketch.Query{K: 5, LSH: true, Probes: 4}) {
		i := slices.IndexFunc(full, func(r ipsketch.SearchResult) bool { return r.Table == hit.Table && r.Column == hit.Column })
		if i < 0 || !resultsIdentical(hit, full[i]) {
			t.Fatalf("probes=4 hit %+v is not the full scan's result for its column", hit)
		}
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scan == nil {
		t.Fatal("statsz scan block missing after searches")
	}
	if stats.Scan.LSHProbes == 0 || stats.Scan.LSHCandidates == 0 {
		t.Fatalf("statsz lsh counters not accumulated: %+v", stats.Scan)
	}
}

// TestServiceLSHMetrics: the Prometheus endpoint exports the lsh scan
// counters once a mode=lsh search has run.
func TestServiceLSHMetrics(t *testing.T) {
	ctx := context.Background()
	srv, err := service.New(lshTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	query, lake := lakePayloads(t, 6)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", Mode: "lsh"}
	if _, err := cl.Search(ctx, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{"sketchd_scan_lsh_probes_total", "sketchd_scan_lsh_candidates_total"} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, text)
		}
		if strings.Contains(text, name+" 0\n") {
			t.Fatalf("%s still zero after a mode=lsh search", name)
		}
	}
}

// TestStatszScanMatchesMetrics: the /statsz scan block is read from the
// registry counters /metrics exports, so after a mix of full and
// mode=lsh searches the two surfaces agree field by field.
func TestStatszScanMatchesMetrics(t *testing.T) {
	ctx := context.Background()
	srv, err := service.New(lshTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	query, lake := lakePayloads(t, 8)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, req := range []service.SearchRequest{
			{Table: &query, Column: "v", RankBy: "join_size"},
			{Table: &query, Column: "v", RankBy: "abs_correlation", MinJoin: 1e9},
			{Table: &query, Column: "v", RankBy: "join_size", Mode: "lsh"},
			{Table: &query, Column: "v", RankBy: "abs_inner_product", Mode: "lsh", Probes: 4},
		} {
			if _, err := cl.Search(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Searches != 4*rounds || stats.Scan == nil {
		t.Fatalf("statsz after %d searches: searches=%d scan=%+v", 4*rounds, stats.Searches, stats.Scan)
	}
	_, _, body := scrape(t, hs.URL, "/metrics")
	for name, got := range map[string]int64{
		"sketchd_scan_candidates_total":     stats.Scan.Candidates,
		"sketchd_scan_pruned_total":         stats.Scan.Pruned,
		"sketchd_scan_columnar_total":       stats.Scan.Columnar,
		"sketchd_scan_fallback_total":       stats.Scan.Fallback,
		"sketchd_scan_lsh_probes_total":     stats.Scan.LSHProbes,
		"sketchd_scan_lsh_candidates_total": stats.Scan.LSHCandidates,
	} {
		if want := int64(sampleValue(body, name)); got != want {
			t.Errorf("/statsz %s = %d, /metrics says %d", name, got, want)
		}
	}
	if stats.Scan.Candidates == 0 || stats.Scan.Pruned == 0 || stats.Scan.LSHProbes == 0 {
		t.Errorf("scan counters did not move: %+v", stats.Scan)
	}
}

// TestServiceLSHValidation: mode/probes validation surfaces as 400s, and
// a server without LSH enabled refuses mode=lsh outright.
func TestServiceLSHValidation(t *testing.T) {
	ctx := context.Background()
	query, lake := lakePayloads(t, 3)

	status := func(err error) int {
		var ce *client.Error
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *client.Error", err)
		}
		return ce.Status
	}

	// Plain server: mode=lsh is a client error, not a silent full scan.
	_, plain := newTestServer(t, service.Config{})
	for name, p := range lake {
		if _, err := plain.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", Mode: "lsh"}
	if _, err := plain.Search(ctx, req); err == nil || status(err) != http.StatusBadRequest {
		t.Fatalf("mode=lsh on a plain server: %v", err)
	}

	// LSH server: bad mode string and out-of-range probes are 400s.
	_, cl := newTestServer(t, lshTestCfg())
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	bad := req
	bad.Mode = "banded"
	if _, err := cl.Search(ctx, bad); err == nil || status(err) != http.StatusBadRequest {
		t.Fatalf("unknown mode: %v", err)
	}
	over := req
	over.Probes = 65 // Bands=64
	if _, err := cl.Search(ctx, over); err == nil || status(err) != http.StatusBadRequest {
		t.Fatalf("probes out of range: %v", err)
	}
	neg := req
	neg.Probes = -1
	if _, err := cl.Search(ctx, neg); err == nil || status(err) != http.StatusBadRequest {
		t.Fatalf("negative probes: %v", err)
	}
	// mode=full ignores probes-free path and still works on an LSH server.
	if _, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size"}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceLSHConfigValidation: unusable LSH configurations are
// rejected at boot, not at first query.
func TestServiceLSHConfigValidation(t *testing.T) {
	cases := []service.Config{
		{Sketch: testSketchCfg, KeySpace: testKeySpace, LSHBands: 64},                          // rows missing
		{Sketch: testSketchCfg, KeySpace: testKeySpace, LSHRows: 4},                            // bands missing
		{Sketch: testSketchCfg, KeySpace: testKeySpace, LSHProbes: 8},                          // probes without banding
		{Sketch: testSketchCfg, KeySpace: testKeySpace, LSHBands: 8, LSHRows: 4, LSHProbes: 9}, // probes > bands
		// 300 storage words → fewer signature samples than Bands×Rows.
		{Sketch: testSketchCfg, KeySpace: testKeySpace, LSHBands: 100, LSHRows: 100},
		// JL carries no signature at all.
		{Sketch: ipsketch.Config{Method: ipsketch.MethodJL, StorageWords: 300, Seed: 21},
			KeySpace: testKeySpace, LSHBands: 8, LSHRows: 4},
	}
	for i, cfg := range cases {
		if _, err := service.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}
