// This file is the server's observability surface: the metrics registry
// and its wiring into every layer (request counters and latency
// histograms per endpoint, search stage timings, WAL and catalog
// latency observers, runtime gauges), the per-request X-Request-ID
// correlation flow, the slog access log, and the bounded slow-query log
// behind GET /debug/slowlog. DESIGN.md §13 is the inventory.

package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	ipsketch "repro"

	"repro/internal/telemetry"
)

// DefaultSlowLogSize is the slow-query log capacity when
// Config.SlowLogSize is zero.
const DefaultSlowLogSize = 32

// ctxKey keys context values set by the middleware.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFromContext returns the request's correlation ID ("" outside
// an instrumented request).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// maxRequestIDLen bounds an inbound X-Request-ID; longer values are
// replaced rather than truncated (a hostile 1 MiB header must not flow
// into every log line and metric path).
const maxRequestIDLen = 128

// newRequestID mints a process-unique correlation ID: a boot-time random
// prefix plus a sequence number, so IDs are unique across restarts
// without per-request entropy reads.
func (s *Server) newRequestID() string {
	return s.bootID + "-" + strconv.FormatUint(s.reqSeq.Add(1), 16)
}

// serverMetrics holds the pre-registered instruments the request path
// touches, so the hot path never takes the registry mutex except for the
// per-status-code counter lookup.
type serverMetrics struct {
	reg *telemetry.Registry

	stageSnapshot *telemetry.Histogram
	stageScan     *telemetry.Histogram
	stageColumnar *telemetry.Histogram
	stageFallback *telemetry.Histogram
	stageMerge    *telemetry.Histogram
	stageFill     *telemetry.Histogram

	scanCandidates    *telemetry.Counter
	scanPruned        *telemetry.Counter
	scanColumnar      *telemetry.Counter
	scanFallback      *telemetry.Counter
	scanLSHProbes     *telemetry.Counter
	scanLSHCandidates *telemetry.Counter

	walAppend *telemetry.Histogram
	walFsync  *telemetry.Histogram

	catalogPublish *telemetry.Histogram

	snapshotSave *telemetry.Histogram
	snapshotLoad *telemetry.Histogram
}

// initMetrics builds the registry and every statically-known instrument.
// Called once from New, before the catalog and WAL wiring that consumes
// the observers.
func (s *Server) initMetrics() {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram("sketchd_search_stage_seconds",
			"Per-stage /search time: wall-clock for snapshot/scan/merge/fill, CPU summed across workers for columnar/fallback.",
			nil, telemetry.L("stage", name))
	}
	m.stageSnapshot = stage("snapshot")
	m.stageScan = stage("scan")
	m.stageColumnar = stage("columnar")
	m.stageFallback = stage("fallback")
	m.stageMerge = stage("merge")
	m.stageFill = stage("fill")

	m.scanCandidates = reg.Counter("sketchd_scan_candidates_total", "Candidate columns scored across every /search.")
	m.scanPruned = reg.Counter("sketchd_scan_pruned_total", "Scored candidates dropped by the min_join_size filter.")
	m.scanColumnar = reg.Counter("sketchd_scan_columnar_total", "Candidates scored by the packed columnar kernel.")
	m.scanFallback = reg.Counter("sketchd_scan_fallback_total", "Candidates scored by the decoded fallback path.")
	m.scanLSHProbes = reg.Counter("sketchd_scan_lsh_probes_total", "LSH bands probed across every mode=lsh /search.")
	m.scanLSHCandidates = reg.Counter("sketchd_scan_lsh_candidates_total", "Band candidate entries gathered for exact rescoring across every mode=lsh /search.")

	m.walAppend = reg.Histogram("sketchd_wal_append_seconds",
		"WAL Append latency: frame assembly, write(2), and any policy fsync.", nil)
	m.walFsync = reg.Histogram("sketchd_wal_fsync_seconds",
		"WAL fsync latency, whatever triggered the sync.", nil)
	m.catalogPublish = reg.Histogram("sketchd_catalog_publish_seconds",
		"Copy-on-write publish latency per mutation: index derivation (re-packing the runs it touches), pointer swap.", nil)
	m.snapshotSave = reg.Histogram("sketchd_snapshot_save_seconds",
		"Catalog snapshot save latency (capture, encode, atomic write, WAL checkpoint).", nil)
	m.snapshotLoad = reg.Histogram("sketchd_snapshot_load_seconds",
		"Catalog snapshot load latency at boot.", nil)

	reg.GaugeFunc("sketchd_tables", "Cataloged tables.", func() float64 { return float64(s.cat.Len()) })
	reg.GaugeFunc("sketchd_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("sketchd_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("sketchd_go_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).",
		func() float64 { var ms runtime.MemStats; runtime.ReadMemStats(&ms); return float64(ms.HeapAlloc) })
	if w := s.cfg.WAL; w != nil {
		reg.GaugeFunc("sketchd_wal_lsn", "Last assigned WAL LSN.", func() float64 { return float64(w.LSN()) })
		reg.GaugeFunc("sketchd_wal_checkpoint_lsn", "WAL snapshot-checkpoint LSN.",
			func() float64 { return float64(w.CheckpointLSN()) })
		reg.GaugeFunc("sketchd_wal_segments", "Live WAL segment files.", func() float64 { return float64(w.Segments()) })
	}
	s.metrics = m
}

// Registry exposes the metrics registry (the daemon mounts extra
// collectors; tests scrape it directly).
func (s *Server) Registry() *telemetry.Registry { return s.metrics.reg }

// InFlight returns the number of requests currently inside the handler
// stack (the drain path logs it before waiting them out).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// statusRecorder captures the response status and size for the access
// log and the per-endpoint counters.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) status() int {
	if sr.code == 0 {
		return http.StatusOK
	}
	return sr.code
}

// observe is the outermost request wrapper: it assigns (or accepts) the
// correlation ID, counts the request in-flight, and — after the rest of
// the stack ran — emits the access log line. It runs for every request,
// including not-ready 503s, so the access log is a complete record.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(HeaderRequestID)
		if id == "" || len(id) > maxRequestIDLen {
			id = s.newRequestID()
		}
		w.Header().Set(HeaderRequestID, id)
		sr := &statusRecorder{ResponseWriter: w}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		next.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		if lg := s.cfg.AccessLog; lg != nil {
			lg.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sr.status(),
				"duration_ms", float64(time.Since(start).Microseconds())/1e3,
				"bytes", sr.bytes,
				"request_id", id,
				"remote", r.RemoteAddr,
			)
		}
	})
}

// instrument wraps one endpoint handler with its request counter, error
// counter, latency histogram, and in-flight gauge. The endpoint label is
// the route's wiring-time name, never the raw path, so label cardinality
// is fixed.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.metrics.reg
	dur := reg.Histogram("sketchd_request_duration_seconds",
		"Request latency by endpoint.", nil, telemetry.L("endpoint", endpoint))
	inflight := reg.Gauge("sketchd_inflight_requests",
		"Requests currently being handled, by endpoint.", telemetry.L("endpoint", endpoint))
	errs := reg.Counter("sketchd_request_errors_total",
		"Requests answered with a 4xx or 5xx, by endpoint.", telemetry.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Inc()
		defer inflight.Dec()
		h(w, r)
		dur.ObserveSince(start)
		code := http.StatusOK
		if sr, ok := w.(*statusRecorder); ok {
			code = sr.status()
		}
		reg.Counter("sketchd_requests_total", "Requests handled, by endpoint and status code.",
			telemetry.L("endpoint", endpoint), telemetry.L("code", strconv.Itoa(code))).Inc()
		if code >= 400 {
			errs.Inc()
		}
	}
}

// observeSearch folds one /search's stage timings into the stage
// histograms and scan counters, and offers it to the slow-query log.
// start is the handler's entry time; the wall stages partition the
// total, with the remainder (decode, query sketching, slot queueing)
// attributed to "other".
func (s *Server) observeSearch(ctx context.Context, start time.Time, req *SearchRequest, k, results int, scan ipsketch.ScanStats) {
	total := time.Since(start).Nanoseconds()
	m := s.metrics
	m.stageSnapshot.Observe(float64(scan.SnapshotNanos) / 1e9)
	m.stageScan.Observe(float64(scan.ScanNanos) / 1e9)
	m.stageColumnar.Observe(float64(scan.ColumnarNanos) / 1e9)
	m.stageFallback.Observe(float64(scan.FallbackNanos) / 1e9)
	m.stageMerge.Observe(float64(scan.MergeNanos) / 1e9)
	m.stageFill.Observe(float64(scan.FillNanos) / 1e9)
	m.scanCandidates.Add(scan.Candidates)
	m.scanPruned.Add(scan.Pruned)
	m.scanColumnar.Add(scan.Columnar)
	m.scanFallback.Add(scan.Fallback)
	m.scanLSHProbes.Add(scan.LSHProbes)
	m.scanLSHCandidates.Add(scan.LSHCandidates)

	sl := &s.slowlog
	if total < sl.thresholdNanos() {
		return
	}
	other := total - scan.SnapshotNanos - scan.ScanNanos - scan.MergeNanos - scan.FillNanos
	if other < 0 {
		other = 0
	}
	sl.record(SlowLogEntry{
		RequestID:        RequestIDFromContext(ctx),
		TimeUTC:          time.Now().UTC().Format(time.RFC3339Nano),
		Column:           req.Column,
		RankBy:           req.RankBy,
		K:                k,
		Results:          results,
		TotalNanos:       scan.SnapshotNanos + scan.ScanNanos + scan.MergeNanos + scan.FillNanos + other,
		SnapshotNanos:    scan.SnapshotNanos,
		ScanNanos:        scan.ScanNanos,
		MergeNanos:       scan.MergeNanos,
		FillNanos:        scan.FillNanos,
		OtherNanos:       other,
		ColumnarCPUNanos: scan.ColumnarNanos,
		FallbackCPUNanos: scan.FallbackNanos,
		Candidates:       scan.Candidates,
		Pruned:           scan.Pruned,
		Columnar:         scan.Columnar,
		Fallback:         scan.Fallback,
	})
}

// slowLog keeps the N slowest searches at or above a threshold. Bounded
// and mutex-guarded: record replaces the current fastest entry only when
// the newcomer is slower, so the kept set is always the true top N by
// total latency among offered entries.
type slowLog struct {
	mu        sync.Mutex
	cap       int
	threshold int64 // nanoseconds; entries faster than this are not offered
	entries   []SlowLogEntry
}

func (sl *slowLog) init(cap int, threshold time.Duration) {
	if cap <= 0 {
		cap = DefaultSlowLogSize
	}
	sl.cap = cap
	sl.threshold = threshold.Nanoseconds()
}

func (sl *slowLog) thresholdNanos() int64 { return sl.threshold }

func (sl *slowLog) record(e SlowLogEntry) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if len(sl.entries) < sl.cap {
		sl.entries = append(sl.entries, e)
		return
	}
	// Replace the fastest kept entry if the newcomer is slower.
	min := 0
	for i := 1; i < len(sl.entries); i++ {
		if sl.entries[i].TotalNanos < sl.entries[min].TotalNanos {
			min = i
		}
	}
	if e.TotalNanos > sl.entries[min].TotalNanos {
		sl.entries[min] = e
	}
}

// snapshot returns the kept entries, slowest first.
func (sl *slowLog) snapshot() []SlowLogEntry {
	sl.mu.Lock()
	out := append([]SlowLogEntry(nil), sl.entries...)
	sl.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNanos > out[j].TotalNanos })
	return out
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.errs.Add(1)
	}
}

// handleSlowLog serves the slow-query log, slowest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, SlowLogResponse{
		ThresholdNanos: s.slowlog.thresholdNanos(),
		Capacity:       s.slowlog.cap,
		Entries:        s.slowlog.snapshot(),
	})
}

// newBootID returns the request-ID prefix for this process: 6 random
// bytes, hex. Falls back to the boot time if the system entropy pool is
// unreadable (IDs stay unique within the process either way).
func newBootID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
