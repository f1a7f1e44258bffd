package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/service"
	"repro/service/client"
)

// scrape GETs path from the test server and returns status + body.
func scrape(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// metricLine asserts the exposition contains the exact rendered sample.
func metricLine(t *testing.T, body []byte, line string) {
	t.Helper()
	if !strings.Contains(string(body), line+"\n") {
		t.Errorf("exposition missing %q", line)
	}
}

// TestMetricsEndpoint drives an exact request mix and asserts /metrics
// is lint-clean and reports the exact per-endpoint counts.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query, lake := lakePayloads(t, 3)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_correlation"}); err != nil {
			t.Fatal(err)
		}
	}
	// One deliberate 400: unknown rank_by.
	if _, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "nope"}); err == nil {
		t.Fatal("bad rank_by did not fail")
	}

	code, hdr, body := scrape(t, hs.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, err := range telemetry.Lint(body) {
		t.Errorf("lint: %v", err)
	}
	metricLine(t, body, `sketchd_requests_total{code="200",endpoint="put_table"} 3`)
	metricLine(t, body, `sketchd_requests_total{code="200",endpoint="search"} 2`)
	metricLine(t, body, `sketchd_requests_total{code="400",endpoint="search"} 1`)
	metricLine(t, body, `sketchd_request_errors_total{endpoint="search"} 1`)
	metricLine(t, body, `sketchd_request_duration_seconds_count{endpoint="search"} 3`)
	metricLine(t, body, `sketchd_scan_pruned_total 0`)
	metricLine(t, body, `sketchd_tables 3`)
	// Stage histograms observed once per successful search.
	metricLine(t, body, `sketchd_search_stage_seconds_count{stage="scan"} 2`)
	metricLine(t, body, `sketchd_search_stage_seconds_count{stage="merge"} 2`)
	metricLine(t, body, `sketchd_search_stage_seconds_count{stage="fill"} 2`)
	// Catalog publish latency: one observation per put.
	metricLine(t, body, `sketchd_catalog_publish_seconds_count 3`)
	if !bytes.Contains(body, []byte("sketchd_go_goroutines")) ||
		!bytes.Contains(body, []byte("sketchd_go_heap_bytes")) {
		t.Error("runtime gauges missing from exposition")
	}
}

// TestMetricsUnderLoad scrapes /metrics concurrently with traffic:
// every mid-load scrape must lint clean, request counts must be
// monotonic across scrapes, and the final count must be exact.
func TestMetricsUnderLoad(t *testing.T) {
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, lake := lakePayloads(t, 4)
	names := make([]string, 0, len(lake))
	for name := range lake {
		names = append(names, name)
	}

	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	var scrapeErr error
	var scrapeMu sync.Mutex
	// Scraper: hammer /metrics while the load runs. It joins via its own
	// channel — it must NOT be in the load WaitGroup, which is what gates
	// closing stop.
	go func() {
		defer close(scraperDone)
		var lastSearches float64 = -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(hs.URL + "/metrics")
			if err != nil {
				scrapeMu.Lock()
				scrapeErr = err
				scrapeMu.Unlock()
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if errs := telemetry.Lint(body); len(errs) > 0 {
				scrapeMu.Lock()
				scrapeErr = fmt.Errorf("mid-load lint: %v", errs[0])
				scrapeMu.Unlock()
				return
			}
			n := sampleValue(body, `sketchd_request_duration_seconds_count{endpoint="put_table"}`)
			if n < lastSearches {
				scrapeMu.Lock()
				scrapeErr = fmt.Errorf("put_table count went backwards: %v -> %v", lastSearches, n)
				scrapeMu.Unlock()
				return
			}
			lastSearches = n
			time.Sleep(time.Millisecond) // don't starve the load workers
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := names[(w+i)%len(names)]
				if _, err := cl.PutTable(ctx, fmt.Sprintf("%s-%d-%d", name, w, i), lake[name]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	scrapeMu.Lock()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	scrapeMu.Unlock()

	_, _, body := scrape(t, hs.URL, "/metrics")
	want := fmt.Sprintf(`sketchd_requests_total{code="200",endpoint="put_table"} %d`, workers*perWorker)
	metricLine(t, body, want)
}

// sampleValue extracts one sample's value from an exposition (0 when
// the sample is absent).
func sampleValue(body []byte, prefix string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// TestRequestIDFlow pins the correlation contract: an inbound
// X-Request-ID is echoed verbatim, a missing one is generated, and a
// client-visible error carries the ID in the typed *Error and its
// string form.
func TestRequestIDFlow(t *testing.T) {
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set(service.HeaderRequestID, "caller-chosen-17")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(service.HeaderRequestID); got != "caller-chosen-17" {
		t.Fatalf("inbound request ID not echoed: got %q", got)
	}

	resp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get(service.HeaderRequestID) == "" {
		t.Fatal("no generated request ID on response")
	}

	// A hostile oversized ID is replaced, not echoed.
	req3, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	huge := strings.Repeat("x", 4096)
	req3.Header.Set(service.HeaderRequestID, huge)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(service.HeaderRequestID); got == huge || got == "" {
		t.Fatalf("oversized request ID handling: got %d bytes", len(got))
	}

	// Client errors carry the ID.
	cl, err := client.New(hs.URL, client.WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Search(context.Background(), service.SearchRequest{Column: "v", RankBy: "nope",
		Table: &service.TablePayload{Keys: []uint64{1}, Columns: map[string][]float64{"v": {1}}}})
	var ce *client.Error
	if !errorsAs(err, &ce) {
		t.Fatalf("expected *client.Error, got %T: %v", err, err)
	}
	if ce.RequestID == "" {
		t.Fatal("client error has no request ID")
	}
	if !strings.Contains(ce.Error(), "[request "+ce.RequestID+"]") {
		t.Fatalf("error string %q does not name request %q", ce.Error(), ce.RequestID)
	}
}

// errorsAs avoids importing errors alongside the service alias clash.
func errorsAs(err error, target *(*client.Error)) bool {
	for err != nil {
		if ce, ok := err.(*client.Error); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestSlowLog pins the slow-query log contract: with a zero threshold
// every search is offered, the kept entries are the slowest, and each
// entry's wall stages partition its total exactly.
func TestSlowLog(t *testing.T) {
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, SlowLogSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query, lake := lakePayloads(t, 3)
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	const searches = 6
	for i := 0; i < searches; i++ {
		// Alternate the two fill shapes: an unbounded correlation ranking
		// (every estimate in the scan, fill only builds results) and a
		// bounded join-size one (fill computes five estimates per result).
		req := service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_correlation"}
		if i%2 == 1 {
			k := 2
			req.RankBy, req.K = "join_size", &k
		}
		if _, err := cl.Search(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	code, _, body := scrape(t, hs.URL, "/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog returned %d", code)
	}
	var sl service.SlowLogResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", sl.Capacity)
	}
	if len(sl.Entries) != 4 {
		t.Fatalf("kept %d entries, want capacity 4 (of %d searches)", len(sl.Entries), searches)
	}
	for i, e := range sl.Entries {
		if i > 0 && e.TotalNanos > sl.Entries[i-1].TotalNanos {
			t.Fatalf("entries not sorted slowest-first at %d", i)
		}
		if e.TotalNanos <= 0 {
			t.Fatalf("entry %d total %d", i, e.TotalNanos)
		}
		if sum := e.SnapshotNanos + e.ScanNanos + e.MergeNanos + e.FillNanos + e.OtherNanos; sum != e.TotalNanos {
			t.Fatalf("entry %d stages sum to %d, total %d", i, sum, e.TotalNanos)
		}
		if e.Candidates == 0 {
			t.Fatalf("entry %d has no candidates", i)
		}
		if e.FillNanos <= 0 {
			t.Fatalf("entry %d has no fill stage: %+v", i, e)
		}
		if e.RequestID == "" {
			t.Fatalf("entry %d has no request ID", i)
		}
		if (e.RankBy != "abs_correlation" && e.RankBy != "join_size") || e.Column != "v" {
			t.Fatalf("entry %d query fields: rank_by=%q column=%q", i, e.RankBy, e.Column)
		}
	}
	// A sky-high threshold keeps the log empty.
	srv2, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace,
		SlowLogThreshold: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	cl2, err := client.New(hs2.URL)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range lake {
		if _, err := cl2.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl2.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_correlation"}); err != nil {
		t.Fatal(err)
	}
	_, _, body2 := scrape(t, hs2.URL, "/debug/slowlog")
	var sl2 service.SlowLogResponse
	if err := json.Unmarshal(body2, &sl2); err != nil {
		t.Fatal(err)
	}
	if len(sl2.Entries) != 0 {
		t.Fatalf("threshold 1h still recorded %d entries", len(sl2.Entries))
	}
	if sl2.ThresholdNanos != time.Hour.Nanoseconds() {
		t.Fatalf("threshold_ns = %d", sl2.ThresholdNanos)
	}
}

// TestReadyzReplayLSN: a WAL-backed server that has not replayed yet
// reports 503 replaying WITH the log positions, so an operator can see
// how much log a slow boot has left.
func TestReadyzReplayLSN(t *testing.T) {
	dir := t.TempDir()
	log1, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, WAL: log1}
	srv1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	cl1, err := client.New(hs1.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, lake := lakePayloads(t, 3)
	for name, p := range lake {
		if _, err := cl1.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	hs1.Close()
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	cfg.WAL = log2
	srv2, err := service.New(cfg) // born not-ready; replay NOT run
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	code, _, body := scrape(t, hs2.URL, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before replay returned %d", code)
	}
	var ready service.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "replaying" {
		t.Fatalf("status = %q", ready.Status)
	}
	if ready.WALLSN != 3 {
		t.Fatalf("wal_lsn = %d, want 3 (three logged puts)", ready.WALLSN)
	}
	if ready.WALCheckpointLSN != 0 {
		t.Fatalf("wal_checkpoint_lsn = %d, want 0", ready.WALCheckpointLSN)
	}
	// /metrics stays reachable while not ready, and the WAL gauges agree.
	mcode, _, mbody := scrape(t, hs2.URL, "/metrics")
	if mcode != http.StatusOK {
		t.Fatalf("/metrics while replaying returned %d", mcode)
	}
	if v := sampleValue(mbody, "sketchd_wal_lsn"); v != 3 {
		t.Fatalf("sketchd_wal_lsn = %v, want 3", v)
	}
}

// TestStatszRuntime: /statsz carries the runtime satellite fields.
func TestStatszRuntime(t *testing.T) {
	_, cl := newTestServer(t, service.Config{})
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.GoGoroutines <= 0 {
		t.Fatalf("go_goroutines = %d", stats.GoGoroutines)
	}
	if stats.HeapBytes == 0 {
		t.Fatal("heap_bytes = 0")
	}
	if stats.UptimeSeconds < 0 {
		t.Fatalf("uptime_seconds = %v", stats.UptimeSeconds)
	}
}

// TestAccessLog: with an access logger configured, every request emits
// one structured line carrying the request ID and status.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace,
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set(service.HeaderRequestID, "log-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var line struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		RequestID string  `json:"request_id"`
		Duration  float64 `json:"duration_ms"`
		Bytes     int64   `json:"bytes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log line %q: %v", buf.String(), err)
	}
	if line.Msg != "request" || line.Method != "GET" || line.Path != "/healthz" ||
		line.Status != 200 || line.RequestID != "log-me-42" || line.Bytes == 0 {
		t.Fatalf("access log line: %+v", line)
	}
}
