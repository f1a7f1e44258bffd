package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ipsketch "repro"
	"repro/internal/catalog"
	"repro/internal/fsx"
	"repro/internal/tables"
	"repro/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Sketch is the sketcher configuration every cataloged table shares.
	Sketch ipsketch.Config
	// KeySpace is the table key-domain size (0 = ipsketch.DefaultKeySpace).
	KeySpace uint64
	// Shards is the catalog stripe count (0 = catalog.DefaultShards).
	Shards int
	// SnapshotPath enables POST /snapshot and boot/shutdown persistence.
	SnapshotPath string
	// IngestLimit and SearchLimit bound the in-flight requests per
	// endpoint group (0 = 2×GOMAXPROCS). Excess requests queue until a
	// slot frees or the client gives up.
	IngestLimit, SearchLimit int
	// MaxBodyBytes bounds request bodies (0 = 256 MiB).
	MaxBodyBytes int64
	// WAL, when set, is the write-ahead log every successful mutation is
	// appended to (before it is published) and the server replays on
	// boot via ReplayWAL. A server with a WAL starts NOT ready: it
	// rejects traffic (503, Retry-After) until ReplayWAL has run.
	WAL *wal.Log
	// RequestTimeout is the server-side deadline applied to every
	// request's context (0 = none). Requests that exceed it while queued
	// for a concurrency slot fail with 503.
	RequestTimeout time.Duration
	// DedupeCap bounds the merge idempotency-key LRU (0 = 1024).
	DedupeCap int
	// SlowLogSize bounds the slow-query log behind GET /debug/slowlog
	// (0 = DefaultSlowLogSize).
	SlowLogSize int
	// SlowLogThreshold is the minimum /search latency recorded in the
	// slow-query log (0 = record every search until the log is contested).
	SlowLogThreshold time.Duration
	// AccessLog, when set, receives one structured line per request
	// (method, path, status, duration, bytes, request ID).
	AccessLog *slog.Logger
	// LSHBands and LSHRows, when both positive, make the catalog maintain
	// a banded candidate index (rebuilt at every publish) and enable
	// mode=lsh searches. The sketch method must carry an LSH signature
	// (MH or WMH) with at least LSHBands×LSHRows samples; New rejects the
	// configuration otherwise.
	LSHBands, LSHRows int
	// LSHProbes is the default probe budget for mode=lsh searches that
	// do not set their own (0 = probe every band).
	LSHProbes int
}

// Server serves a sketch catalog over HTTP. Create with New, mount
// Handler.
type Server struct {
	cfg      Config
	cat      *catalog.Catalog
	sketcher *ipsketch.TableSketcher
	mux      *http.ServeMux
	handler  http.Handler
	start    time.Time

	ingestSem, searchSem chan struct{}

	// ready gates traffic: false while the boot replay runs. draining
	// flips /readyz to 503 ahead of connection draining so load
	// balancers stop routing here before shutdown.
	ready, draining atomic.Bool
	// snapMu is the snapshot barrier: mutations hold it shared across
	// append+publish, a snapshot capture holds it exclusively for the
	// instant it reads (catalog view, WAL LSN) — the pair is consistent,
	// which is what makes checkpoint truncation safe.
	snapMu sync.RWMutex

	dedupe dedupe

	// metrics is the telemetry wiring (see telemetry.go); slowlog keeps
	// the N slowest searches; inflight counts requests inside the handler
	// stack for the drain path; bootID+reqSeq mint request IDs.
	metrics  *serverMetrics
	slowlog  slowLog
	inflight atomic.Int64
	bootID   string
	reqSeq   atomic.Uint64

	puts, merges, deletes, searches, estimates, snapshots, errs, replayed atomic.Int64
	lastSnapshotUnixNano                                                  atomic.Int64

	// lsh is the banding configuration (nil when mode=lsh is disabled).
	lsh *ipsketch.LSHParams
}

// New validates the configuration and returns a server with an empty
// catalog.
func New(cfg Config) (*Server, error) {
	sketcher, err := ipsketch.NewTableSketcher(cfg.Sketch, cfg.KeySpace)
	if err != nil {
		return nil, err
	}
	if cfg.KeySpace == 0 {
		cfg.KeySpace = ipsketch.DefaultKeySpace
	}
	if cfg.IngestLimit <= 0 {
		cfg.IngestLimit = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.SearchLimit <= 0 {
		cfg.SearchLimit = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.DedupeCap <= 0 {
		cfg.DedupeCap = DefaultDedupeCap
	}
	// ref carries the server's own configuration: the catalog is pinned to
	// it, and the banding below is validated against it.
	ref, err := pinSketch(sketcher)
	if err != nil {
		return nil, err
	}
	var lshParams *ipsketch.LSHParams
	if cfg.LSHBands != 0 || cfg.LSHRows != 0 || cfg.LSHProbes != 0 {
		p := ipsketch.LSHParams{Bands: cfg.LSHBands, Rows: cfg.LSHRows}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("service: lsh configuration: %w", err)
		}
		if cfg.LSHProbes < 0 || cfg.LSHProbes > p.Bands {
			return nil, fmt.Errorf("service: lsh probe default %d out of range [0, %d]", cfg.LSHProbes, p.Bands)
		}
		// Validate banding against the method at boot — mode=lsh queries
		// must never discover a non-bandable or too-small sketch at runtime.
		sig, err := ref.KeySketch().LSHSignature()
		if err != nil {
			return nil, fmt.Errorf("service: lsh configuration: %w", err)
		}
		if len(sig) < p.SignatureLen() {
			return nil, fmt.Errorf("service: lsh banding needs %d signature entries, %v sketches carry %d",
				p.SignatureLen(), cfg.Sketch.Method, len(sig))
		}
		lshParams = &p
	}
	s := &Server{
		cfg:       cfg,
		sketcher:  sketcher,
		start:     time.Now(),
		ingestSem: make(chan struct{}, cfg.IngestLimit),
		searchSem: make(chan struct{}, cfg.SearchLimit),
		bootID:    newBootID(),
		lsh:       lshParams,
	}
	s.dedupe.init(cfg.DedupeCap)
	s.slowlog.init(cfg.SlowLogSize, cfg.SlowLogThreshold)
	s.initMetrics()
	catOpts := catalog.Options{
		Shards:          cfg.Shards,
		PublishObserver: s.metrics.catalogPublish,
		LSH:             lshParams,
	}
	if cfg.WAL != nil {
		catOpts.OnMutate = s.logMutation
		cfg.WAL.SetMetrics(wal.Metrics{
			AppendSeconds: s.metrics.walAppend,
			SyncSeconds:   s.metrics.walFsync,
		})
	}
	s.cat = catalog.New(catOpts)
	// A WAL-backed server is born not-ready: traffic is rejected until
	// ReplayWAL has rebuilt the tail.
	s.ready.Store(cfg.WAL == nil)
	// Pin the catalog to the server's own configuration up front, so the
	// very first ingest — including a pre-built bundle upload — is
	// validated against it instead of silently becoming the pin.
	if err := s.cat.Pin(ref); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("PUT /tables/{name}", s.instrument("put_table", s.handlePutTable))
	s.mux.HandleFunc("POST /tables/{name}/merge", s.instrument("merge_table", s.handleMergeTable))
	s.mux.HandleFunc("DELETE /tables/{name}", s.instrument("delete_table", s.handleDeleteTable))
	s.mux.HandleFunc("POST /search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("POST /estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.HandleFunc("POST /snapshot", s.instrument("snapshot", s.handleSnapshot))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /statsz", s.instrument("statsz", s.handleStatsz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowLog))
	s.handler = s.observe(s.middleware(s.mux))
	return s, nil
}

// Handler returns the HTTP handler (readiness gate + request deadline
// around the endpoint mux).
func (s *Server) Handler() http.Handler { return s.handler }

// middleware wraps the mux with the readiness gate and the server-side
// request deadline. Liveness and diagnostics stay reachable while the
// server is replaying; everything else gets 503 + Retry-After so
// hardened clients back off and retry instead of failing the boot window.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			switch r.URL.Path {
			case "/healthz", "/readyz", "/statsz", "/metrics", "/debug/slowlog":
			default:
				w.Header().Set("Retry-After", "1")
				s.writeError(w, http.StatusServiceUnavailable, errors.New("service: not ready (replaying)"))
				return
			}
		}
		if d := s.cfg.RequestTimeout; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// StartDraining marks the server draining: /readyz turns 503 so load
// balancers route away, while in-flight and already-connected requests
// keep being served until the HTTP server's graceful shutdown completes.
func (s *Server) StartDraining() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// Catalog exposes the underlying catalog (for the daemon's boot-time
// snapshot load and for tests).
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// DefaultDedupeCap is the merge idempotency LRU size when
// Config.DedupeCap is zero.
const DefaultDedupeCap = 1024

// logMutation is the catalog's OnMutate hook: it appends the mutation to
// the WAL (write-ahead: the catalog publishes only if the append
// succeeds). Snapshot restore and replay go through catalog.Restore,
// which never runs the hook, so nothing the log already holds is
// re-logged.
func (s *Server) logMutation(m catalog.Mutation) error {
	rec, err := walRecord(m)
	if err != nil {
		return err
	}
	_, err = s.cfg.WAL.Append(rec.Op, rec.Name, rec.Tag, rec.Payload)
	return err
}

// walRecord is the log record of a catalog mutation and mutationOf the
// mutation a logged record re-applies: the one mapping between the two,
// for logging and replay alike. The catalog's mutation kinds and the log's
// ops share their numbering (put 1, merge 2, delete 3), so an op converts
// as it is, and the catalog refuses any other; a sketch travels as its
// MarshalBinary bundle.
func walRecord(m catalog.Mutation) (wal.Record, error) {
	rec := wal.Record{Op: wal.Op(m.Op), Name: m.Name, Tag: m.Tag}
	if m.Sketch != nil {
		var err error
		if rec.Payload, err = m.Sketch.MarshalBinary(); err != nil {
			return rec, fmt.Errorf("service: encoding WAL payload: %w", err)
		}
	}
	return rec, nil
}

func mutationOf(rec wal.Record) (catalog.Mutation, error) {
	m := catalog.Mutation{Op: catalog.MutationOp(rec.Op), Name: rec.Name, Tag: rec.Tag}
	if len(rec.Payload) > 0 {
		var err error
		if m.Sketch, err = ipsketch.UnmarshalTableSketch(rec.Payload); err != nil {
			return m, err
		}
	}
	return m, nil
}

// ReplayWAL stages every logged mutation after the snapshot checkpoint in
// one catalog restore — each touched shard is rebuilt and published once,
// when the whole tail has been read — rebuilds the merge-dedupe state
// from logged request IDs, collects the garbage boot left, then flips
// the server ready. Boot decodes the snapshot and the log into sketches
// whose samples the published packs copy (the packs are the catalog's
// one copy), so those decoded sketches are garbage about the size of the
// catalog; collecting them here means a ready server's heap is its live
// state, not what the collector happened to leave of boot. Call once at
// boot, after any snapshot restore and before serving traffic. A torn or
// corrupt log tail stops the replay cleanly (see the WAL's TornNote);
// only an unappliable record — which indicates real state divergence —
// fails the boot, with nothing of the tail published.
func (s *Server) ReplayWAL() (int, error) {
	w := s.cfg.WAL
	if w == nil {
		return 0, errors.New("service: no WAL configured")
	}
	var n int
	err := s.cat.Restore(func(r *catalog.Restore) (err error) {
		n, err = w.Replay(func(rec wal.Record) error {
			m, err := mutationOf(rec)
			if err != nil {
				return err
			}
			out, existed, err := r.Apply(m)
			if err == nil && m.Op == catalog.MutationMerge && m.Tag != "" {
				// The cached response describes the table as it stood
				// right after this merge, not as the tail leaves it.
				s.dedupe.record(m.Tag, mergeResponse(out, existed))
			}
			return err
		})
		return err
	})
	if err != nil {
		return n, err
	}
	s.replayed.Store(int64(n))
	runtime.GC()
	s.ready.Store(true)
	return n, nil
}

// SaveSnapshot persists the catalog to the configured snapshot path. The
// catalog's entries, the merge idempotency keys and (with a WAL) the log
// position are captured together under the snapshot barrier — only the
// name-sorted entry list, all the encoder reads, so mutations stall for a
// map walk and not for an encode. The keys are written first, to a
// sidecar next to the snapshot (keysSuffix), so a snapshot on disk never
// has older keys than tables; after the snapshot is durable the WAL is
// checkpointed: replayed-on-boot records ≤ the captured LSN are skipped
// and fully-covered segments deleted.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("service: no snapshot path configured")
	}
	defer s.metrics.snapshotSave.ObserveSince(time.Now())
	w := s.cfg.WAL
	var lsn uint64
	s.snapMu.Lock()
	ix := s.cat.Capture()
	keys := s.dedupe.completed()
	if w != nil {
		lsn = w.LSN()
	}
	s.snapMu.Unlock()
	if err := saveKeys(s.cfg.SnapshotPath+keysSuffix, keys); err != nil {
		return err
	}
	if err := catalog.SaveIndex(ix, s.cfg.SnapshotPath); err != nil {
		return err
	}
	if w != nil && lsn > w.CheckpointLSN() {
		if err := w.Checkpoint(lsn); err != nil {
			return err
		}
	}
	s.snapshots.Add(1)
	s.lastSnapshotUnixNano.Store(time.Now().UnixNano())
	return nil
}

// LoadSnapshot restores the catalog from the configured snapshot path,
// returning the number of tables loaded, and seeds the merge idempotency
// keys from the snapshot's sidecar, so a retry of a merge at or below the
// checkpoint is answered from the cache after a restart. A missing
// sidecar seeds nothing; a malformed one fails the load with a *KeysError
// before any table is restored.
func (s *Server) LoadSnapshot() (int, error) {
	if s.cfg.SnapshotPath == "" {
		return 0, errors.New("service: no snapshot path configured")
	}
	defer s.metrics.snapshotLoad.ObserveSince(time.Now())
	keys, err := loadKeys(s.cfg.SnapshotPath + keysSuffix)
	if err != nil {
		return 0, err
	}
	n, err := s.cat.Load(s.cfg.SnapshotPath)
	if err != nil {
		return n, err
	}
	for _, k := range keys {
		s.dedupe.record(k.Key, k.Response)
	}
	return n, nil
}

// keysSuffix names a snapshot's idempotency-key sidecar: the snapshot's
// path plus the suffix.
const keysSuffix = ".keys"

// keyEntry is one completed merge in the sidecar: its idempotency key and
// the response a retry with the key is answered with.
type keyEntry struct {
	Key      string        `json:"key"`
	Response MergeResponse `json:"response"`
}

// KeysError is the typed failure of loading a snapshot's idempotency-key
// sidecar: the file exists but cannot be read or decoded. Boot refuses
// it, because forgetting the keys would let a retry apply its merge twice.
type KeysError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *KeysError) Error() string {
	return fmt.Sprintf("service: idempotency keys %s are unreadable: %v", e.Path, e.Err)
}

// Unwrap exposes the read or decode failure.
func (e *KeysError) Unwrap() error { return e.Err }

// saveKeys writes the completed keys, oldest first, atomically and
// durably to path. With no keys it writes nothing and removes what an
// earlier snapshot left there.
func saveKeys(path string, keys []keyEntry) error {
	if len(keys) == 0 {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("service: removing idempotency keys: %w", err)
		}
		return nil
	}
	err := fsx.AtomicWrite(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(keys) })
	if err != nil {
		return fmt.Errorf("service: writing idempotency keys: %w", err)
	}
	return nil
}

// loadKeys reads the keys saveKeys wrote to path: none when the file does
// not exist, a *KeysError when it does not decode to entries with keys.
func loadKeys(path string) ([]keyEntry, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	var keys []keyEntry
	if err == nil {
		err = json.Unmarshal(data, &keys)
	}
	for i := 0; err == nil && i < len(keys); i++ {
		if keys[i].Key == "" {
			err = fmt.Errorf("entry %d has an empty key", i)
		}
	}
	if err != nil {
		return nil, &KeysError{Path: path, Err: err}
	}
	return keys, nil
}

// pinSketch builds the reference sketch carrying the server's
// configuration (a one-key table; only the key sketch's parameters
// matter for compatibility pinning).
func pinSketch(ts *ipsketch.TableSketcher) (*ipsketch.TableSketch, error) {
	tab, err := ipsketch.NewTable("config-pin", []uint64{0}, nil)
	if err != nil {
		return nil, err
	}
	return ts.SketchTable(tab)
}

// dedupe is the merge idempotency-key LRU: completed request IDs map to
// their responses (bounded, FIFO eviction), and in-flight IDs park
// duplicate requests until the first application finishes — a retried
// merge is answered from the cache instead of double-applied.
type dedupe struct {
	mu       sync.Mutex
	cap      int
	done     map[string]MergeResponse
	order    []string
	inflight map[string]chan struct{}
}

func (d *dedupe) init(cap int) {
	d.cap = cap
	d.done = make(map[string]MergeResponse)
	d.inflight = make(map[string]chan struct{})
}

// begin either returns the cached response for id (ok=true), or claims
// id for this caller (ok=false): the caller must apply the merge and
// call finish. Duplicates of an in-flight id wait for its outcome.
func (d *dedupe) begin(ctx context.Context, id string) (MergeResponse, bool, error) {
	for {
		d.mu.Lock()
		if resp, ok := d.done[id]; ok {
			d.mu.Unlock()
			return resp, true, nil
		}
		ch, ok := d.inflight[id]
		if !ok {
			d.inflight[id] = make(chan struct{})
			d.mu.Unlock()
			return MergeResponse{}, false, nil
		}
		d.mu.Unlock()
		select {
		case <-ch:
			// Re-check: success lands in done; failure lets us retry the
			// application ourselves.
		case <-ctx.Done():
			return MergeResponse{}, false, ctx.Err()
		}
	}
}

// finish resolves a claimed id: resp != nil caches the success, nil
// releases the claim so a parked duplicate can try applying itself.
func (d *dedupe) finish(id string, resp *MergeResponse) {
	d.mu.Lock()
	if resp != nil {
		d.insertLocked(id, *resp)
	}
	if ch, ok := d.inflight[id]; ok {
		delete(d.inflight, id)
		close(ch)
	}
	d.mu.Unlock()
}

// record caches a completed id directly (the boot path).
func (d *dedupe) record(id string, resp MergeResponse) {
	d.mu.Lock()
	d.insertLocked(id, resp)
	d.mu.Unlock()
}

// completed returns the cached responses, oldest first.
func (d *dedupe) completed() []keyEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]keyEntry, len(d.order))
	for i, id := range d.order {
		out[i] = keyEntry{Key: id, Response: d.done[id]}
	}
	return out
}

func (d *dedupe) insertLocked(id string, resp MergeResponse) {
	if _, ok := d.done[id]; ok {
		return
	}
	d.done[id] = resp
	d.order = append(d.order, id)
	for len(d.order) > d.cap {
		delete(d.done, d.order[0])
		d.order = d.order[1:]
	}
}

// acquire blocks for a concurrency slot until the request dies.
func (s *Server) acquire(ctx context.Context, sem chan struct{}) error {
	select {
	case sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writeJSON writes a 2xx JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.errs.Add(1)
	}
}

// writeError writes a JSON error response.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.errs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// buildTable materializes a TablePayload and parses its aggregation. It
// does not look for duplicate keys: sketching finds them in the sort it
// already runs (tables.ErrDuplicateKeys), and sketchPayload aggregates only
// then.
func buildTable(name string, p *TablePayload) (*ipsketch.Table, ipsketch.Agg, error) {
	var agg ipsketch.Agg
	if p == nil {
		return nil, agg, errors.New("service: missing table payload")
	}
	if (len(p.Keys) == 0) == (len(p.StringKeys) == 0) {
		return nil, agg, errors.New("service: exactly one of keys or string_keys must be set")
	}
	keys := p.Keys
	if len(p.StringKeys) > 0 {
		keys = make([]uint64, len(p.StringKeys))
		for i, k := range p.StringKeys {
			keys[i] = ipsketch.KeyFromString(k)
		}
	}
	t, err := ipsketch.NewTable(name, keys, p.Columns)
	if err != nil {
		return nil, agg, err
	}
	if p.Agg != "" {
		if err := agg.UnmarshalText([]byte(p.Agg)); err != nil {
			return nil, agg, err
		}
	}
	return t, agg, nil
}

// sketchPayload sketches the named columns (all when none are named) of a
// raw-columns payload, with construction scratch drawn from the sketcher's
// builder pool. A table with duplicate keys is aggregated with the
// payload's agg and sketched again, or refused when it names none. The
// bundle carries the name it was given: aggregating duplicate keys renames
// the table (name#agg), and a request must catalog, log and answer under
// the name it addressed.
func (s *Server) sketchPayload(name string, p *TablePayload, cols ...string) (*ipsketch.TableSketch, error) {
	t, agg, err := buildTable(name, p)
	if err != nil {
		return nil, err
	}
	tsk, err := s.sketcher.SketchTable(t, cols...)
	if errors.Is(err, tables.ErrDuplicateKeys) {
		if p.Agg == "" {
			return nil, errors.New("service: table has duplicate keys; set agg to reduce them")
		}
		if t, err = t.Aggregate(agg); err != nil {
			return nil, err
		}
		tsk, err = s.sketcher.SketchTable(t, cols...)
	}
	if err != nil {
		return nil, err
	}
	tsk.Name = name
	return tsk, nil
}

// ingestSketch resolves an ingest request body — a pre-built serialized
// sketch bundle (application/octet-stream) or raw JSON columns sketched
// server-side — into a table sketch named after the request path.
func (s *Server) ingestSketch(w http.ResponseWriter, r *http.Request, name string) (*ipsketch.TableSketch, error) {
	body, err := s.readBody(w, r)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		// Pre-built serialized sketch bundle; the path name wins.
		if err != nil {
			return nil, err
		}
		tsk, err := ipsketch.UnmarshalTableSketch(body)
		if err != nil {
			return nil, err
		}
		tsk.Name = name
		return tsk, nil
	}
	var p TablePayload
	if err == nil {
		p, err = decodeTablePayload(body)
	}
	if err != nil {
		return nil, fmt.Errorf("service: decoding table payload: %w", err)
	}
	return s.sketchPayload(name, &p)
}

func (s *Server) handlePutTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("service: empty table name"))
		return
	}
	if err := s.acquire(r.Context(), s.ingestSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.ingestSem }()
	tsk, err := s.ingestSketch(w, r, name)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	s.snapMu.RLock()
	_, _, err = s.cat.Apply(catalog.Mutation{Op: catalog.MutationPut, Name: name, Sketch: tsk})
	s.snapMu.RUnlock()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.puts.Add(1)
	s.writeJSON(w, PutResponse{
		Table:        tsk.Name,
		Columns:      tsk.Columns(),
		StorageWords: Float(tsk.StorageWords()),
	})
}

// handleMergeTable folds a partial table sketch into the cataloged sketch
// of the path name, creating it when absent: the distributed-ingest
// endpoint. Producers holding disjoint partitions of a table each push
// their partition (raw columns or a pre-built bundle) and the catalog
// rolls them up atomically, so no producer ever needs the whole table.
//
// Merge is NOT idempotent for every sketch family (additive families
// double-count), so a retried request must not re-apply: a client that
// may retry sends an Idempotency-Key header, and the server answers a
// repeated key from a bounded LRU of completed responses instead of
// merging again. Logged keys survive restarts via WAL replay.
func (s *Server) handleMergeTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("service: empty table name"))
		return
	}
	if err := s.acquire(r.Context(), s.ingestSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.ingestSem }()
	id := r.Header.Get(HeaderIdempotencyKey)
	if id != "" {
		resp, seen, err := s.dedupe.begin(r.Context(), id)
		if err != nil {
			s.writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		if seen {
			w.Header().Set(HeaderIdempotentReplay, "true")
			s.writeJSON(w, resp)
			return
		}
	}
	tsk, err := s.ingestSketch(w, r, name)
	if err != nil {
		if id != "" {
			s.dedupe.finish(id, nil)
		}
		s.writeBodyError(w, err)
		return
	}
	s.snapMu.RLock()
	out, merged, err := s.cat.Apply(catalog.Mutation{Op: catalog.MutationMerge, Name: name, Sketch: tsk, Tag: id})
	var resp MergeResponse
	if err == nil {
		// The response, and the cache entry a retry is answered from,
		// describe the table this merge produced, whatever a racing write
		// did since. The entry is cached under the snapshot barrier, so a
		// snapshot that covers the merge's log record also holds its key.
		resp = mergeResponse(out, merged)
		if id != "" {
			s.dedupe.finish(id, &resp)
		}
	}
	s.snapMu.RUnlock()
	if err != nil {
		if id != "" {
			s.dedupe.finish(id, nil)
		}
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.merges.Add(1)
	s.writeJSON(w, resp)
}

// mergeResponse describes the table a merge left behind.
func mergeResponse(out *ipsketch.TableSketch, merged bool) MergeResponse {
	return MergeResponse{
		Table:        out.Name,
		Merged:       merged,
		Columns:      out.Columns(),
		StorageWords: Float(out.StorageWords()),
	}
}

func (s *Server) handleDeleteTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.acquire(r.Context(), s.ingestSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.ingestSem }()
	s.snapMu.RLock()
	_, removed, err := s.cat.Apply(catalog.Mutation{Op: catalog.MutationDelete, Name: name})
	s.snapMu.RUnlock()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if removed {
		s.deletes.Add(1)
	}
	s.writeJSON(w, DeleteResponse{Table: name, Removed: removed})
}

// querySketch resolves a search request's query table sketch.
func (s *Server) querySketch(req *SearchRequest) (*ipsketch.TableSketch, error) {
	if (req.Table == nil) == (req.SketchB64 == "") {
		return nil, errors.New("service: exactly one of table or sketch_b64 must be set")
	}
	if req.SketchB64 != "" {
		blob, err := base64.StdEncoding.DecodeString(req.SketchB64)
		if err != nil {
			return nil, fmt.Errorf("service: decoding sketch_b64: %w", err)
		}
		return ipsketch.UnmarshalTableSketch(blob)
	}
	// The query's name only matters for self-exclusion: the search skips
	// a cataloged table with the same name. The default (empty) name can
	// never be cataloged, so an inline query excludes nothing unless the
	// caller opts in with table_name. The search reads the ranked column
	// alone, so that is all the query sketches.
	return s.sketchPayload(req.TableName, req.Table, req.Column)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if err := s.acquire(r.Context(), s.searchSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.searchSem }()
	body, err := s.readBody(w, r)
	var req SearchRequest
	if err == nil {
		req, err = decodeSearchRequest(body)
	}
	if err != nil {
		s.writeBodyError(w, fmt.Errorf("service: decoding search request: %w", err))
		return
	}
	q, err := s.resolveQuery(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	results, scan, err := s.cat.Search(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	hits := make([]SearchHit, len(results))
	for i, res := range results {
		hits[i] = hitFromResult(res)
	}
	s.searches.Add(1)
	s.observeSearch(r.Context(), start, &req, q.K, len(hits), scan)
	s.writeJSON(w, SearchResponse{Results: hits})
}

// resolveQuery validates a search request and resolves it into the one
// Query every later hop runs: the ranking, the probe default, the result
// bound and the query sketch.
func (s *Server) resolveQuery(req *SearchRequest) (ipsketch.Query, error) {
	q := ipsketch.Query{Column: req.Column, MinJoinSize: req.MinJoin, K: -1}
	var err error
	if q.RankBy, err = ParseRankBy(req.RankBy); err != nil {
		return q, err
	}
	if req.Column == "" {
		return q, errors.New("service: missing query column")
	}
	mode, err := ParseSearchMode(req.Mode)
	if err != nil {
		return q, err
	}
	if q.LSH = mode == SearchModeLSH; q.LSH {
		if s.lsh == nil {
			return q, errors.New("service: mode=lsh requires an LSH-enabled server (-lsh-bands/-lsh-rows)")
		}
		if q.Probes = req.Probes; q.Probes < 0 || q.Probes > s.lsh.Bands {
			return q, fmt.Errorf("service: probes %d out of range [0, %d]", q.Probes, s.lsh.Bands)
		}
		if q.Probes == 0 {
			q.Probes = s.cfg.LSHProbes // 0 = every band
		}
	}
	// An omitted k asks for the full ranking — the one search shape that
	// estimates everything for every candidate. An explicit negative k is
	// a client bug, not a request for that.
	if req.K != nil {
		if q.K = *req.K; q.K < 0 {
			return q, fmt.Errorf("service: k %d is negative (omit k for the full ranking)", q.K)
		}
	}
	q.Sketch, err = s.querySketch(req)
	return q, err
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if err := s.acquire(r.Context(), s.searchSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.searchSem }()
	var req EstimateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		s.writeBodyError(w, fmt.Errorf("service: decoding estimate request: %w", err))
		return
	}
	a, ok := s.cat.Get(req.TableA)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: table %q not cataloged", req.TableA))
		return
	}
	b, ok := s.cat.Get(req.TableB)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: table %q not cataloged", req.TableB))
		return
	}
	st, err := ipsketch.EstimateJoinStats(a, req.ColumnA, b, req.ColumnB)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.estimates.Add(1)
	s.writeJSON(w, EstimateResponse{Stats: statsToJSON(st)})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.acquire(r.Context(), s.ingestSem); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer func() { <-s.ingestSem }()
	if s.cfg.SnapshotPath == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("service: no snapshot path configured"))
		return
	}
	if err := s.SaveSnapshot(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, SnapshotResponse{Path: s.cfg.SnapshotPath, Tables: s.cat.Len()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := BuildInfo()
	s.writeJSON(w, HealthResponse{Status: "ok", Tables: s.cat.Len(), Build: &bi})
}

// handleReadyz is the traffic-readiness probe, distinct from /healthz
// liveness: 503 while the boot replay runs and while the server drains
// ahead of shutdown, so load balancers route away without killing the
// process's in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "replaying", http.StatusServiceUnavailable
	}
	resp := ReadyResponse{Status: status, Tables: s.cat.Len()}
	if wl := s.cfg.WAL; wl != nil {
		resp.WALLSN = wl.LSN()
		resp.WALCheckpointLSN = wl.CheckpointLSN()
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Tables:        s.cat.Len(),
		Shards:        s.cat.Shards(),
		ShardSizes:    s.cat.ShardSizes(),
		Method:        s.cfg.Sketch.Method.String(),
		StorageWords:  s.cfg.Sketch.StorageWords,
		KeySpace:      s.cfg.KeySpace,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Puts:          s.puts.Load(),
		Merges:        s.merges.Load(),
		Deletes:       s.deletes.Load(),
		Searches:      s.searches.Load(),
		Estimates:     s.estimates.Load(),
		Snapshots:     s.snapshots.Load(),
		Errors:        s.errs.Load(),
		GoGoroutines:  runtime.NumGoroutine(),
		SnapshotPath:  s.cfg.SnapshotPath,
		Ready:         s.ready.Load(),
		Draining:      s.draining.Load(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resp.HeapBytes = ms.HeapAlloc
	if ns := s.lastSnapshotUnixNano.Load(); ns != 0 {
		resp.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	if resp.Searches > 0 {
		// The same counters /metrics exports as sketchd_scan_*_total.
		m := s.metrics
		resp.Scan = &ScanSearchStats{
			Candidates:    int64(m.scanCandidates.Value()),
			Pruned:        int64(m.scanPruned.Value()),
			Columnar:      int64(m.scanColumnar.Value()),
			Fallback:      int64(m.scanFallback.Value()),
			LSHProbes:     int64(m.scanLSHProbes.Value()),
			LSHCandidates: int64(m.scanLSHCandidates.Value()),
		}
	}
	if w := s.cfg.WAL; w != nil {
		resp.WAL = &WALStats{
			Dir:        w.Dir(),
			Fsync:      w.Policy().String(),
			LSN:        w.LSN(),
			Checkpoint: w.CheckpointLSN(),
			Segments:   w.Segments(),
			Replayed:   s.replayed.Load(),
		}
	}
	bi := BuildInfo()
	resp.Build = &bi
	s.writeJSON(w, resp)
}
