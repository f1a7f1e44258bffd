// Package service exposes a sketch catalog over HTTP/JSON: the serving
// layer of the paper's §1.2 workflow. A daemon holds the precomputed
// sketches of every table in the search set; analysts PUT new tables
// (raw columns, sketched server-side, or pre-built sketch bundles) and
// POST queries that are answered from sketches alone.
//
// Endpoints:
//
//	PUT    /tables/{name}        ingest a table (JSON columns or a serialized
//	                             table-sketch bundle as application/octet-stream)
//	POST   /tables/{name}/merge  fold a partial table sketch (same body
//	                             formats) into the cataloged sketch of that
//	                             name, creating it when absent — the
//	                             distributed-ingest endpoint for producers
//	                             holding disjoint partitions of one table
//	DELETE /tables/{name}        remove a table
//	POST   /search               rank the catalog against a query column
//	POST   /estimate             pairwise join statistics for two cataloged tables
//	POST   /snapshot             persist the catalog to the configured snapshot
//	GET    /healthz              liveness
//	GET    /readyz               traffic readiness (503 while replaying or draining)
//	GET    /statsz               counters, per-shard sizes, configuration
//
// Ingest and query paths have independent concurrency limits, and
// server-side sketching draws pooled builders from the server's one
// TableSketcher.
//
// With a write-ahead log configured (Config.WAL), every successful
// mutation is logged before it is published and the server replays the
// log tail on boot; POST /tables/{name}/merge accepts an
// Idempotency-Key header so retried merges are answered from a dedupe
// cache instead of double-applied (see DESIGN.md §11 for the per-
// endpoint retry/idempotency table).
package service

import (
	"fmt"
	"math"
	"strconv"

	ipsketch "repro"
)

// Float is a float64 that survives JSON: NaN and infinities (which
// encoding/json rejects) encode as null and decode back to NaN. Finite
// values use the shortest round-trip representation, so estimates cross
// the wire bit-exactly.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("service: parsing float %q: %w", data, err)
	}
	*f = Float(v)
	return nil
}

// TablePayload is a raw table in a request body: parallel key and value
// columns, exactly as NewTable takes them. Exactly one of Keys or
// StringKeys must be set; StringKeys are mapped through KeyFromString.
// Tables with duplicate keys are rejected unless Agg names an aggregation
// ("sum", "mean", "count", "min", "max", "first") to reduce them.
type TablePayload struct {
	Keys       []uint64             `json:"keys,omitempty"`
	StringKeys []string             `json:"string_keys,omitempty"`
	Columns    map[string][]float64 `json:"columns"`
	Agg        string               `json:"agg,omitempty"`
}

// PutResponse acknowledges an ingest.
type PutResponse struct {
	Table        string   `json:"table"`
	Columns      []string `json:"columns"`
	StorageWords Float    `json:"storage_words"`
}

// MergeResponse acknowledges a partial-sketch merge. Merged reports
// whether the partial was folded into an existing sketch (false: it
// became the first sketch under the name); Columns and StorageWords
// describe the cataloged sketch after the merge.
type MergeResponse struct {
	Table        string   `json:"table"`
	Merged       bool     `json:"merged"`
	Columns      []string `json:"columns"`
	StorageWords Float    `json:"storage_words"`
}

// DeleteResponse acknowledges a removal.
type DeleteResponse struct {
	Table   string `json:"table"`
	Removed bool   `json:"removed"`
}

// SearchRequest ranks the catalog against a query column. The query table
// arrives inline (raw columns in Table, sketched server-side) or as a
// pre-built serialized table-sketch bundle (SketchB64, standard base64 of
// TableSketch.MarshalBinary); exactly one must be set. A cataloged table
// whose name equals the query's is excluded from the ranking (the index's
// self-exclusion rule); inline tables default to the un-catalogable empty
// name, so they exclude nothing unless TableName is set. Bundle queries
// carry their own name.
type SearchRequest struct {
	Table     *TablePayload `json:"table,omitempty"`
	TableName string        `json:"table_name,omitempty"` // self-exclusion name for an inline table
	SketchB64 string        `json:"sketch_b64,omitempty"`
	Column    string        `json:"column"`
	RankBy    string        `json:"rank_by"`                 // see ParseRankBy
	MinJoin   float64       `json:"min_join_size,omitempty"` // candidates below are skipped
	K         *int          `json:"k,omitempty"`             // nil = full ranking; 0 = none
	// Mode selects the scan strategy: SearchModeFull (the default, "")
	// scores every catalog entry; SearchModeLSH gathers banded candidates
	// and exact-rescores only those — sublinear, with recall governed by
	// the server's banding parameters and the probe budget. Requires the
	// server to run with LSH enabled (-lsh-bands/-lsh-rows); 400 otherwise.
	Mode string `json:"mode,omitempty"`
	// Probes bounds how many bands an lsh-mode search probes: 0 means the
	// server's default (all bands unless -lsh-probes narrows it); 1..bands
	// trades recall for probe cost. Ignored in full mode.
	Probes int `json:"probes,omitempty"`
}

// SearchHit is one ranked candidate.
type SearchHit struct {
	Table  string        `json:"table"`
	Column string        `json:"column"`
	Score  Float         `json:"score"`
	Stats  JoinStatsJSON `json:"stats"`
}

// SearchResponse is the ranked result list.
type SearchResponse struct {
	Results []SearchHit `json:"results"`
}

// EstimateRequest asks for the pairwise join statistics of two cataloged
// tables.
type EstimateRequest struct {
	TableA  string `json:"table_a"`
	ColumnA string `json:"column_a"`
	TableB  string `json:"table_b"`
	ColumnB string `json:"column_b"`
}

// EstimateResponse carries the estimated statistics.
type EstimateResponse struct {
	Stats JoinStatsJSON `json:"stats"`
}

// SnapshotResponse acknowledges a snapshot save.
type SnapshotResponse struct {
	Path   string `json:"path"`
	Tables int    `json:"tables"`
}

// HealthResponse is the /healthz body. Build identifies the binary
// (ldflags-injected version plus VCS metadata), so a running daemon
// says which build it is from one /healthz.
type HealthResponse struct {
	Status string       `json:"status"`
	Tables int          `json:"tables"`
	Build  *VersionInfo `json:"build,omitempty"`
}

// ReadyResponse is the /readyz body; Status is "ready", "replaying", or
// "draining" (the latter two with HTTP 503). On a WAL-backed server the
// log positions are included, so a "replaying" 503 says where the boot
// replay is headed (WALLSN, the last record on disk) and where it starts
// (WALCheckpointLSN, the snapshot checkpoint) — enough to judge how far
// along a slow boot is from the outside.
type ReadyResponse struct {
	Status           string `json:"status"`
	Tables           int    `json:"tables"`
	WALLSN           uint64 `json:"wal_lsn,omitempty"`
	WALCheckpointLSN uint64 `json:"wal_checkpoint_lsn,omitempty"`
}

// HeaderIdempotencyKey carries a client-chosen request ID on
// POST /tables/{name}/merge: the server applies each key at most once
// and answers repeats from a bounded cache, making merge retries safe.
const HeaderIdempotencyKey = "Idempotency-Key"

// HeaderIdempotentReplay marks a merge response that was answered from
// the dedupe cache rather than a fresh application.
const HeaderIdempotentReplay = "X-Idempotent-Replay"

// HeaderRequestID carries the request correlation ID. The server accepts
// an inbound value (so a caller's ID flows through its logs and errors)
// or generates one, and always echoes the ID on the response — including
// error responses, which is what lets a client error message name the
// exact server-side log lines to look at.
const HeaderRequestID = "X-Request-ID"

// WALStats describes the write-ahead log in /statsz.
type WALStats struct {
	Dir        string `json:"dir"`
	Fsync      string `json:"fsync"`
	LSN        uint64 `json:"lsn"`
	Checkpoint uint64 `json:"checkpoint"`
	Segments   int    `json:"segments"`
	Replayed   int64  `json:"replayed"`
}

// ScanSearchStats aggregates the per-search scan counters across every
// /search handled since boot: how many candidate columns were scored, how
// many the min_join filter pruned, and how scoring split between the
// columnar kernel and the decoded fallback.
type ScanSearchStats struct {
	Candidates int64 `json:"candidates"`
	Pruned     int64 `json:"pruned"`
	Columnar   int64 `json:"columnar"`
	Fallback   int64 `json:"fallback"`
	// LSHProbes and LSHCandidates aggregate the banded candidate stage of
	// lsh-mode searches (bands probed, candidate entries gathered before
	// exact rescoring); zero until the first lsh-mode search.
	LSHProbes     int64 `json:"lsh_probes"`
	LSHCandidates int64 `json:"lsh_candidates"`
}

// StatsResponse is the /statsz body: a frozen JSON surface giving
// existing consumers basic liveness data (uptime, goroutines, heap)
// without a Prometheus scraper. New instrumentation lands in /metrics
// only; /statsz counters stay for compatibility but do not grow.
type StatsResponse struct {
	Tables        int     `json:"tables"`
	Shards        int     `json:"shards"`
	ShardSizes    []int   `json:"shard_sizes"`
	Method        string  `json:"method"`
	StorageWords  int     `json:"storage_words"`
	KeySpace      uint64  `json:"key_space"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Puts          int64   `json:"puts"`
	Merges        int64   `json:"merges"`
	Deletes       int64   `json:"deletes"`
	Searches      int64   `json:"searches"`
	Estimates     int64   `json:"estimates"`
	Snapshots     int64   `json:"snapshots"`
	Errors        int64   `json:"errors"`
	GoGoroutines  int     `json:"go_goroutines"`
	HeapBytes     uint64  `json:"heap_bytes"`
	SnapshotPath  string  `json:"snapshot_path,omitempty"`
	LastSnapshot  string  `json:"last_snapshot_utc,omitempty"`
	Ready         bool    `json:"ready"`
	Draining      bool    `json:"draining,omitempty"`
	// Scan is present once at least one /search has run.
	Scan *ScanSearchStats `json:"scan,omitempty"`
	WAL  *WALStats        `json:"wal,omitempty"`
	// Build identifies the binary.
	Build *VersionInfo `json:"build,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SlowLogEntry is one recorded slow /search. Durations are nanoseconds;
// the wall-clock stages partition the total exactly: SnapshotNanos +
// ScanNanos + MergeNanos + FillNanos + OtherNanos == TotalNanos (ScanNanos
// is the rank phase over every candidate, FillNanos the remaining
// estimates of the final k results; OtherNanos is the request work
// outside the catalog search — body decode, query sketching, slot
// queueing). ColumnarCPUNanos and FallbackCPUNanos are
// CPU time summed across the scan's parallel workers, so they can exceed
// ScanNanos on multi-core scans.
type SlowLogEntry struct {
	RequestID string `json:"request_id,omitempty"`
	TimeUTC   string `json:"time_utc"`
	Column    string `json:"column"`
	RankBy    string `json:"rank_by"`
	K         int    `json:"k"`
	Results   int    `json:"results"`

	TotalNanos    int64 `json:"total_ns"`
	SnapshotNanos int64 `json:"snapshot_ns"`
	ScanNanos     int64 `json:"scan_ns"`
	MergeNanos    int64 `json:"merge_ns"`
	FillNanos     int64 `json:"fill_ns"`
	OtherNanos    int64 `json:"other_ns"`

	ColumnarCPUNanos int64 `json:"columnar_cpu_ns"`
	FallbackCPUNanos int64 `json:"fallback_cpu_ns"`

	Candidates int64 `json:"candidates"`
	Pruned     int64 `json:"pruned"`
	Columnar   int64 `json:"columnar"`
	Fallback   int64 `json:"fallback"`
}

// SlowLogResponse is the /debug/slowlog body: the slowest recorded
// searches, slowest first.
type SlowLogResponse struct {
	ThresholdNanos int64          `json:"threshold_ns"`
	Capacity       int            `json:"capacity"`
	Entries        []SlowLogEntry `json:"entries"`
}

// JoinStatsJSON mirrors ipsketch.JoinStats with NaN-safe floats.
type JoinStatsJSON struct {
	Size         Float `json:"size"`
	SumA         Float `json:"sum_a"`
	SumB         Float `json:"sum_b"`
	MeanA        Float `json:"mean_a"`
	MeanB        Float `json:"mean_b"`
	VarA         Float `json:"var_a"`
	VarB         Float `json:"var_b"`
	InnerProduct Float `json:"inner_product"`
	Covariance   Float `json:"covariance"`
	Correlation  Float `json:"correlation"`
}

// statsToJSON converts estimator output for the wire.
func statsToJSON(st ipsketch.JoinStats) JoinStatsJSON {
	return JoinStatsJSON{
		Size: Float(st.Size),
		SumA: Float(st.SumA), SumB: Float(st.SumB),
		MeanA: Float(st.MeanA), MeanB: Float(st.MeanB),
		VarA: Float(st.VarA), VarB: Float(st.VarB),
		InnerProduct: Float(st.InnerProduct),
		Covariance:   Float(st.Covariance),
		Correlation:  Float(st.Correlation),
	}
}

// Stats converts back to the library type.
func (j JoinStatsJSON) Stats() ipsketch.JoinStats {
	return ipsketch.JoinStats{
		Size: float64(j.Size),
		SumA: float64(j.SumA), SumB: float64(j.SumB),
		MeanA: float64(j.MeanA), MeanB: float64(j.MeanB),
		VarA: float64(j.VarA), VarB: float64(j.VarB),
		InnerProduct: float64(j.InnerProduct),
		Covariance:   float64(j.Covariance),
		Correlation:  float64(j.Correlation),
	}
}

// Result converts a hit back to the library type.
func (h SearchHit) Result() ipsketch.SearchResult {
	return ipsketch.SearchResult{
		Table:  h.Table,
		Column: h.Column,
		Score:  float64(h.Score),
		Stats:  h.Stats.Stats(),
	}
}

// hitFromResult converts a library result for the wire.
func hitFromResult(r ipsketch.SearchResult) SearchHit {
	return SearchHit{
		Table:  r.Table,
		Column: r.Column,
		Score:  Float(r.Score),
		Stats:  statsToJSON(r.Stats),
	}
}

// ParseRankBy maps a wire name to a ranking statistic. Accepted values:
// "join_size", "abs_correlation", "abs_inner_product" (plus the short
// aliases "size", "corr", "ip").
func ParseRankBy(s string) (ipsketch.RankBy, error) {
	switch s {
	case "join_size", "size":
		return ipsketch.RankByJoinSize, nil
	case "abs_correlation", "corr":
		return ipsketch.RankByAbsCorrelation, nil
	case "abs_inner_product", "ip":
		return ipsketch.RankByAbsInnerProduct, nil
	}
	return 0, fmt.Errorf("service: unknown rank_by %q (want join_size, abs_correlation, or abs_inner_product)", s)
}

// Search modes (SearchRequest.Mode).
const (
	// SearchModeFull scans every catalog entry (the default).
	SearchModeFull = "full"
	// SearchModeLSH gathers banded candidates and exact-rescores them.
	SearchModeLSH = "lsh"
)

// ParseSearchMode maps a wire mode name ("" = full) to its canonical
// constant.
func ParseSearchMode(s string) (string, error) {
	switch s {
	case "", SearchModeFull:
		return SearchModeFull, nil
	case SearchModeLSH:
		return SearchModeLSH, nil
	}
	return "", fmt.Errorf("service: unknown search mode %q (want full or lsh)", s)
}

// RankByName is the wire name of a ranking statistic (inverse of
// ParseRankBy's canonical names).
func RankByName(by ipsketch.RankBy) string {
	switch by {
	case ipsketch.RankByJoinSize:
		return "join_size"
	case ipsketch.RankByAbsCorrelation:
		return "abs_correlation"
	case ipsketch.RankByAbsInnerProduct:
		return "abs_inner_product"
	}
	return fmt.Sprintf("RankBy(%d)", int(by))
}
