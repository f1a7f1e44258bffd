// Command sketchd serves a sketch catalog over HTTP: the daemon form of
// the paper's §1.2 dataset-search workflow. Tables are ingested once (raw
// columns, sketched on arrival, or pre-built sketch bundles), held in a
// sharded concurrent catalog, and ranked against query columns by
// estimated post-join statistics — no joins, no raw data at query time.
//
// Usage:
//
//	sketchd -addr :7207 -method WMH -storage 400 -seed 1 \
//	        -snapshot /var/lib/sketchd/catalog.ipsx -snapshot-every 5m \
//	        -wal /var/lib/sketchd/wal -wal-fsync interval
//
// With -snapshot, the catalog is restored from the file on boot (if it
// exists), persisted on graceful shutdown (SIGINT/SIGTERM), persisted
// every -snapshot-every interval, and persisted on demand via
// POST /snapshot. Snapshots are written atomically and durably (temp
// file + fsync + rename + directory fsync).
//
// With -wal, every successful mutation is appended to a write-ahead log
// before it is acknowledged, so a crash — even kill -9 — loses nothing
// that was acknowledged. On boot the daemon restores the snapshot (if
// any), replays the log tail, and only then reports ready on /readyz;
// until then mutating and query endpoints answer 503 + Retry-After.
// Snapshots double as checkpoints: fully-snapshotted log segments are
// deleted. If the snapshot file is unreadable, -snapshot-recover falls
// back to replaying everything the log still holds instead of refusing
// to boot (records garbage-collected by earlier checkpoints are gone;
// the fallback restores the newest surviving state).
//
// On SIGINT/SIGTERM the daemon drains: /readyz flips to 503 so load
// balancers route away, in-flight requests get -drain-timeout to
// finish, then the final snapshot is written and the WAL closed.
//
// Every flag sets one field of service.Config or wal.Options, except the
// daemon's own -addr, -snapshot-every, -snapshot-recover, -drain-timeout,
// -pprof and -access-log. See the service package for the endpoint
// reference and "ipsketch search -remote" for a client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ipsketch "repro"
	"repro/internal/catalog"
	"repro/internal/wal"
	"repro/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sketchd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for the smoke test: it parses args,
// binds the listener, restores snapshot + WAL tail, announces the
// resolved address on ready (if non-nil) once the server is accepting
// traffic, serves until ctx is canceled, then drains and persists.
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	// Every flag with a home in the server or WAL configuration binds
	// straight to its field; only the daemon's own knobs are locals.
	var (
		cfg service.Config
		wo  wal.Options
	)
	fs := flag.NewFlagSet("sketchd", flag.ContinueOnError)
	addr := fs.String("addr", ":7207", "listen address")
	fs.TextVar(&cfg.Sketch.Method, "method", ipsketch.MethodWMH, fmt.Sprint("sketch method, one of ", ipsketch.Methods()))
	fs.IntVar(&cfg.Sketch.StorageWords, "storage", 400, "sketch budget in 64-bit words")
	fs.Uint64Var(&cfg.Sketch.Seed, "seed", 1, "seed deriving all sketch randomness")
	fs.Uint64Var(&cfg.KeySpace, "keyspace", 0, "key-domain size (0 = default 2^63)")
	fs.Uint64Var(&cfg.Sketch.L, "l", 0, "WMH discretization parameter (0 = automatic)")
	fs.BoolVar(&cfg.Sketch.Quantize, "quantize", false, "store sample values in 32 bits (supported methods)")
	fs.BoolVar(&cfg.Sketch.Dart, "dart", false, "deprecated and ignored: WMH always uses the dart construction")
	fs.IntVar(&cfg.Shards, "shards", 0, "catalog shard count (0 = default)")
	fs.StringVar(&cfg.SnapshotPath, "snapshot", "", "snapshot file (load on boot, save on shutdown)")
	snapshotEvery := fs.Duration("snapshot-every", 0, "periodic snapshot interval (0 = only on shutdown)")
	snapRecover := fs.Bool("snapshot-recover", false, "with -wal: replay the log instead of failing when the snapshot is unreadable")
	fs.StringVar(&wo.Dir, "wal", "", "write-ahead log directory (empty = no WAL)")
	fs.TextVar(&wo.Sync, "wal-fsync", wal.SyncAlways, "WAL fsync policy: always, interval, or none")
	fs.DurationVar(&wo.SyncInterval, "wal-fsync-interval", wal.DefaultSyncInterval, "fsync cadence for -wal-fsync=interval")
	fs.Int64Var(&wo.SegmentBytes, "wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", 30*time.Second, "server-side per-request deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window for in-flight requests")
	fs.IntVar(&cfg.IngestLimit, "ingest-limit", 0, "max in-flight ingest requests (0 = 2×GOMAXPROCS)")
	fs.IntVar(&cfg.SearchLimit, "search-limit", 0, "max in-flight search requests (0 = 2×GOMAXPROCS)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (alongside /metrics)")
	fs.IntVar(&cfg.SlowLogSize, "slowlog-n", service.DefaultSlowLogSize, "slow-query log capacity (N slowest searches)")
	fs.DurationVar(&cfg.SlowLogThreshold, "slow-threshold", 0, "only record searches at least this slow (0 = keep the N slowest regardless)")
	accessLog := fs.Bool("access-log", false, "emit a structured JSON access-log line per request")
	fs.IntVar(&cfg.LSHBands, "lsh-bands", 0, "LSH bands for mode=lsh search (0 = disabled; requires -lsh-rows)")
	fs.IntVar(&cfg.LSHRows, "lsh-rows", 0, "signature rows per LSH band (0 = disabled; requires -lsh-bands)")
	fs.IntVar(&cfg.LSHProbes, "lsh-probes", 0, "default bands probed per mode=lsh search (0 = all bands)")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if wo.Dir != "" {
		var err error
		if cfg.WAL, err = wal.Open(wo); err != nil {
			return fmt.Errorf("opening WAL: %w", err)
		}
		defer cfg.WAL.Close()
		if note := cfg.WAL.TornNote(); note != "" {
			fmt.Fprintf(out, "sketchd: WAL: %s\n", note)
		}
	}

	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(out, nil))
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}

	if cfg.SnapshotPath != "" {
		if _, err := os.Stat(cfg.SnapshotPath); err == nil {
			n, err := srv.LoadSnapshot()
			switch {
			case err == nil:
				fmt.Fprintf(out, "sketchd: restored %d tables from %s\n", n, cfg.SnapshotPath)
			case *snapRecover && cfg.WAL != nil && errors.As(err, new(*catalog.SnapshotError)):
				// The snapshot is gone but the log survives: replay
				// everything it still holds. Segments collected by
				// earlier checkpoints are unrecoverable, so say so.
				fmt.Fprintf(out, "sketchd: snapshot unreadable (%v); recovering from WAL — tables checkpointed before the oldest surviving segment are lost\n", err)
				if err := cfg.WAL.ForgetCheckpoint(); err != nil {
					return fmt.Errorf("resetting WAL checkpoint for recovery: %w", err)
				}
			default:
				return fmt.Errorf("restoring snapshot: %w", err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checking snapshot: %w", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bi := service.BuildInfo()
	fmt.Fprintf(out, "sketchd: %s (%s) listening on %s (method=%v storage=%d seed=%d shards=%d)\n",
		bi.Version, bi.GoVersion, ln.Addr(), cfg.Sketch.Method, cfg.Sketch.StorageWords, cfg.Sketch.Seed, srv.Catalog().Shards())

	// Serve while still replaying: the readiness middleware answers 503
	// with Retry-After until ReplayWAL flips the server ready, so load
	// balancers and hardened clients back off instead of failing.
	handler := srv.Handler()
	if *pprofOn {
		// Profiling is opt-in: the handlers expose goroutine stacks and
		// heap contents, so they stay off unless the operator asks.
		ops := http.NewServeMux()
		ops.HandleFunc("/debug/pprof/", pprof.Index)
		ops.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		ops.HandleFunc("/debug/pprof/profile", pprof.Profile)
		ops.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		ops.HandleFunc("/debug/pprof/trace", pprof.Trace)
		app := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
				ops.ServeHTTP(w, r)
				return
			}
			app.ServeHTTP(w, r)
		})
		fmt.Fprintf(out, "sketchd: pprof enabled at /debug/pprof/\n")
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if cfg.WAL != nil {
		n, err := srv.ReplayWAL()
		if err != nil {
			hs.Close()
			return fmt.Errorf("replaying WAL: %w", err)
		}
		if note := cfg.WAL.TornNote(); note != "" {
			fmt.Fprintf(out, "sketchd: WAL: %s\n", note)
		}
		fmt.Fprintf(out, "sketchd: replayed %d WAL records (LSN %d, checkpoint %d); ready\n",
			n, cfg.WAL.LSN(), cfg.WAL.CheckpointLSN())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if cfg.SnapshotPath != "" && *snapshotEvery > 0 {
		ticker = time.NewTicker(*snapshotEvery)
		tick = ticker.C
		defer ticker.Stop()
	}

	for {
		select {
		case <-tick:
			if err := srv.SaveSnapshot(); err != nil {
				fmt.Fprintf(out, "sketchd: periodic snapshot failed: %v\n", err)
			}
		case err := <-serveErr:
			return err // listener died underneath us
		case <-ctx.Done():
			// Drain: stop advertising readiness, give in-flight requests
			// the drain window, then persist and release the log.
			srv.StartDraining()
			fmt.Fprintf(out, "sketchd: draining, %d requests in flight\n", srv.InFlight())
			shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := hs.Shutdown(shutCtx)
			cancel()
			if err != nil {
				return fmt.Errorf("shutting down: %w", err)
			}
			<-serveErr // http.ErrServerClosed
			if cfg.SnapshotPath != "" {
				if err := srv.SaveSnapshot(); err != nil {
					return fmt.Errorf("final snapshot: %w", err)
				}
				fmt.Fprintf(out, "sketchd: saved %d tables to %s\n", srv.Catalog().Len(), cfg.SnapshotPath)
			}
			if cfg.WAL != nil {
				if err := cfg.WAL.Close(); err != nil {
					return fmt.Errorf("closing WAL: %w", err)
				}
			}
			return nil
		}
	}
}
