package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/service"
)

// teeLog collects daemon output for assertions while still echoing it to
// the test log. Handler goroutines write concurrently, hence the mutex.
type teeLog struct {
	t  *testing.T
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *teeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.b.Write(p)
	w.mu.Unlock()
	w.t.Logf("%s", p)
	return len(p), nil
}

func (w *teeLog) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// httpGet fetches a path from the daemon and returns status + body.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of the first sample line starting with
// prefix (name plus any label body), or -1 if absent.
func metricValue(body, prefix string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			return v
		}
	}
	return -1
}

// TestSketchdObservability boots the daemon with the full observability
// surface on (-pprof, -access-log, WAL) and checks the operator loop:
// ingest + search, scrape /metrics twice (lint-clean, counters monotonic,
// WAL fsync histogram populated), read /debug/slowlog (stage breakdowns
// partition end-to-end latency), hit pprof, and on shutdown find the
// access-log and drain lines in the daemon output.
func TestSketchdObservability(t *testing.T) {
	out := &teeLog{t: t}
	cl, addr, stop := startDaemonOut(t, out,
		"-method", "WMH", "-storage", "200", "-seed", "7", "-keyspace", "1048576",
		"-wal", t.TempDir(), "-wal-fsync", "always",
		"-pprof", "-access-log", "-slowlog-n", "8")
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		p := service.TablePayload{
			Keys:    []uint64{0, 1, 2, 3, 4, uint64(5 + i)},
			Columns: map[string][]float64{"v": {1, 2, 3, 4, 5, float64(i + 1)}},
		}
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	query := service.TablePayload{Keys: []uint64{0, 1, 2, 3}, Columns: map[string][]float64{"v": {4, 3, 2, 1}}}
	for i := 0; i < 4; i++ {
		if _, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size"}); err != nil {
			t.Fatal(err)
		}
	}

	// First scrape: valid exposition, exact request counts, WAL activity.
	code, body := httpGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if errs := telemetry.Lint([]byte(body)); len(errs) > 0 {
		t.Fatalf("exposition not lint-clean: %v", errs)
	}
	if got := metricValue(body, `sketchd_requests_total{code="200",endpoint="put_table"}`); got != 3 {
		t.Fatalf("put_table requests = %v, want 3", got)
	}
	if got := metricValue(body, `sketchd_requests_total{code="200",endpoint="search"}`); got != 4 {
		t.Fatalf("search requests = %v, want 4", got)
	}
	fsyncs := metricValue(body, "sketchd_wal_fsync_seconds_count")
	if fsyncs < 3 { // -wal-fsync=always: at least one sync per acknowledged put
		t.Fatalf("wal fsync count = %v, want >= 3", fsyncs)
	}
	if got := metricValue(body, "sketchd_wal_lsn"); got != 3 {
		t.Fatalf("wal lsn gauge = %v, want 3", got)
	}

	// Second scrape: counters are monotone and the scrape itself counted.
	code, body2 := httpGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("second /metrics status %d", code)
	}
	if errs := telemetry.Lint([]byte(body2)); len(errs) > 0 {
		t.Fatalf("second exposition not lint-clean: %v", errs)
	}
	if got := metricValue(body2, `sketchd_requests_total{code="200",endpoint="put_table"}`); got != 3 {
		t.Fatalf("put_table requests after rescrape = %v, want 3", got)
	}
	m1 := metricValue(body, `sketchd_requests_total{code="200",endpoint="metrics"}`)
	m2 := metricValue(body2, `sketchd_requests_total{code="200",endpoint="metrics"}`)
	if m2 <= m1 {
		t.Fatalf("metrics endpoint counter not monotone: %v then %v", m1, m2)
	}
	if got := metricValue(body2, "sketchd_wal_fsync_seconds_count"); got < fsyncs {
		t.Fatalf("fsync count went backwards: %v then %v", fsyncs, got)
	}

	// Slow-query log: threshold 0 keeps the N slowest, so all four
	// searches are present with stage breakdowns that partition the
	// end-to-end latency exactly.
	code, slowBody := httpGet(t, addr, "/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog status %d", code)
	}
	var slow service.SlowLogResponse
	if err := json.Unmarshal([]byte(slowBody), &slow); err != nil {
		t.Fatalf("decoding slowlog: %v", err)
	}
	if slow.Capacity != 8 {
		t.Fatalf("slowlog capacity = %d, want 8", slow.Capacity)
	}
	if len(slow.Entries) != 4 {
		t.Fatalf("slowlog entries = %d, want 4", len(slow.Entries))
	}
	for i, e := range slow.Entries {
		if sum := e.SnapshotNanos + e.ScanNanos + e.MergeNanos + e.FillNanos + e.OtherNanos; sum != e.TotalNanos {
			t.Fatalf("entry %d: stages sum to %d, total %d", i, sum, e.TotalNanos)
		}
		if e.RequestID == "" || e.Column != "v" {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
	}

	// pprof is mounted when -pprof is set.
	if code, _ := httpGet(t, addr, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}

	stop()
	logged := out.String()
	if !strings.Contains(logged, `"msg":"request"`) {
		t.Fatalf("no access-log lines in daemon output:\n%s", logged)
	}
	if !strings.Contains(logged, `"path":"/search"`) {
		t.Fatalf("no /search access-log line in daemon output:\n%s", logged)
	}
	if !strings.Contains(logged, "draining, 0 requests in flight") {
		t.Fatalf("no drain line in daemon output:\n%s", logged)
	}
}
