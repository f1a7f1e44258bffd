package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	ipsketch "repro"
	"repro/internal/catalog"
	"repro/internal/wal"
	"repro/service"
	"repro/service/client"
)

// requireSameResults asserts two rankings are bit-identical.
func requireSameResults(t *testing.T, got, want []ipsketch.SearchResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !resultsIdentical(got[i], want[i]) {
			t.Fatalf("%s: result %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// mergeSketchCfg is an unweighted-minhash config: MH partials sketched
// from raw partitions merge exactly (WMH shards would need the parent
// vector's normalization), so merge-centric tests use it.
var mergeSketchCfg = ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 120, Seed: 11}

// newWALServer builds a WAL-backed server (NOT yet replayed) plus a
// client against it.
func newWALServer(t *testing.T, dir string, cfg service.Config) (*service.Server, *wal.Log, *client.Client) {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if cfg.Sketch.StorageWords == 0 {
		cfg.Sketch = testSketchCfg
		cfg.KeySpace = testKeySpace
	}
	cfg.WAL = log
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
	return srv, log, cl
}

// TestWALNotReadyUntilReplay: a WAL-backed server rejects traffic with
// 503 until ReplayWAL runs; /healthz, /readyz, and /statsz stay up.
func TestWALNotReadyUntilReplay(t *testing.T) {
	srv, _, cl := newWALServer(t, t.TempDir(), service.Config{})
	ctx := context.Background()
	_, lake := lakePayloads(t, 2)

	if _, err := cl.PutTable(ctx, "early", lake["t00"]); err == nil {
		t.Fatal("ingest accepted before replay")
	} else if se := client.StatusOf(err); se != http.StatusServiceUnavailable {
		t.Fatalf("pre-replay ingest status = %d (%v)", se, err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz gated: %v", err)
	}
	if err := cl.Ready(ctx); err == nil {
		t.Fatal("readyz reported ready before replay")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz gated: %v", err)
	}
	if st.Ready {
		t.Fatal("statsz claims ready")
	}

	if n, err := srv.ReplayWAL(); err != nil || n != 0 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("readyz after replay: %v", err)
	}
	if _, err := cl.PutTable(ctx, "late", lake["t00"]); err != nil {
		t.Fatalf("ingest after replay: %v", err)
	}
}

// TestWALReplayRebuildsCatalog: mutations logged by one server are
// replayed bit-exactly by a fresh server over the same log — puts,
// tagged merges, and deletes included — and search rankings match an
// uninterrupted reference server.
func TestWALReplayRebuildsCatalog(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	query, lake := lakePayloads(t, 8)

	srv, log, cl := newWALServer(t, dir, service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace})
	if _, err := srv.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	_, plain := newTestServer(t, service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace})

	half := func(p service.TablePayload, hi bool) service.TablePayload {
		n := len(p.Keys) / 2
		lo, hiP := p.Keys[:n], p.Keys[n:]
		loV, hiV := p.Columns["v"][:n], p.Columns["v"][n:]
		if hi {
			return service.TablePayload{Keys: hiP, Columns: map[string][]float64{"v": hiV}}
		}
		return service.TablePayload{Keys: lo, Columns: map[string][]float64{"v": loV}}
	}
	i := 0
	for _, name := range []string{"t00", "t01", "t02", "t03", "t04", "t05"} {
		p := lake[name]
		switch i % 2 {
		case 0:
			if _, err := cl.PutTable(ctx, name, p); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.PutTable(ctx, name, p); err != nil {
				t.Fatal(err)
			}
		case 1: // split into two tagged merges
			for _, part := range []service.TablePayload{half(p, false), half(p, true)} {
				if _, err := cl.MergeTable(ctx, name, part); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.MergeTable(ctx, name, part); err != nil {
					t.Fatal(err)
				}
			}
		}
		i++
	}
	if _, err := cl.DeleteTable(ctx, "t02"); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.DeleteTable(ctx, "t02"); err != nil {
		t.Fatal(err)
	}

	// Close the log handle the first server held, then rebuild a second
	// server from the same directory: pure replay, no snapshot.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv2, err := service.New(service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace, WAL: log2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := srv2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	cl2, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "abs_inner_product"}
	want, err := cl.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gotPlain, err := plain.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "replayed vs original")
	requireSameResults(t, got, gotPlain, "replayed vs uninterrupted")
}

// TestWALSnapshotCheckpointTruncates: snapshotting a WAL-backed server
// checkpoints the log; a rebuild from snapshot+tail sees the full state
// and the replay count only covers the tail.
func TestWALSnapshotCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "cat.ipsx")
	ctx := context.Background()
	query, lake := lakePayloads(t, 6)

	srv, log, cl := newWALServer(t, dir, service.Config{SnapshotPath: snap})
	if _, err := srv.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t00", "t01", "t02"} {
		if _, err := cl.PutTable(ctx, name, lake[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if log.CheckpointLSN() != 3 {
		t.Fatalf("checkpoint = %d", log.CheckpointLSN())
	}
	// The barrier captures a bare name-sorted index; the file must be
	// the one the packed catalog snapshot encodes to.
	packed := filepath.Join(t.TempDir(), "packed.ipsx")
	if err := catalog.SaveIndex(srv.Catalog().Snapshot(), packed); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSnap) == 0 || !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("SaveSnapshot wrote %d bytes, SaveIndex(Snapshot()) %d; files differ", len(gotSnap), len(wantSnap))
	}
	// Three more mutations after the checkpoint: the tail.
	for _, name := range []string{"t03", "t04", "t05"} {
		if _, err := cl.PutTable(ctx, name, lake[name]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size"})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv2, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, WAL: log2, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := srv2.LoadSnapshot(); err != nil || n != 3 {
		t.Fatalf("snapshot load: n=%d err=%v", n, err)
	}
	n, err := srv2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want only the 3-record tail", n)
	}
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	cl2, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size"})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want, "snapshot+tail rebuild")
}

// TestMergeIdempotencyKey: the same Idempotency-Key applied twice merges
// once; the dedupe state survives a WAL replay so retries across a
// restart are safe too.
func TestMergeIdempotencyKey(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, lake := lakePayloads(t, 2)
	part := lake["t00"]

	srv, log, cl := newWALServer(t, dir, service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace})
	if _, err := srv.ReplayWAL(); err != nil {
		t.Fatal(err)
	}

	// MergeTable generates a fresh key per call, so drive the raw
	// endpoint with a pinned key via the client's tagged variant.
	r1, err := cl.MergeTableTagged(ctx, "tbl", part, "fixed-key-1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.MergeTableTagged(ctx, "tbl", part, "fixed-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Merged != r1.Merged || float64(r2.StorageWords) != float64(r1.StorageWords) {
		t.Fatalf("replayed response differs: %+v vs %+v", r2, r1)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Merges != 1 {
		t.Fatalf("merges = %d, want 1 (dedupe miss)", st.Merges)
	}
	if st.WAL == nil || st.WAL.LSN != 1 {
		t.Fatalf("wal stats = %+v, want exactly 1 logged record", st.WAL)
	}

	// Restart from the log: the key must still dedupe.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv2, err := service.New(service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace, WAL: log2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	cl2, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := cl2.MergeTableTagged(ctx, "tbl", part, "fixed-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if float64(r3.StorageWords) != float64(r1.StorageWords) {
		t.Fatalf("post-restart retry reapplied: %+v vs %+v", r3, r1)
	}
	if log2.LSN() != 1 {
		t.Fatalf("post-restart retry logged a new record: LSN=%d", log2.LSN())
	}

	// Concurrent duplicates: one application, identical responses.
	const dups = 8
	var wg sync.WaitGroup
	resps := make([]service.MergeResponse, dups)
	errs := make([]error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cl2.MergeTableTagged(ctx, "tbl", part, "fixed-key-2")
		}(i)
	}
	wg.Wait()
	for i := 0; i < dups; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if float64(resps[i].StorageWords) != float64(resps[0].StorageWords) || resps[i].Merged != resps[0].Merged {
			t.Fatalf("dup %d response differs: %+v vs %+v", i, resps[i], resps[0])
		}
	}
	if log2.LSN() != 2 {
		t.Fatalf("concurrent duplicates logged %d records, want 2 total", log2.LSN())
	}

	// Two merges with different columns into one table, then another
	// restart: the replayed answer to the first key describes the table as
	// that merge left it, not as the end of the log tail leaves it.
	other := service.TablePayload{Keys: part.Keys, Columns: map[string][]float64{"w": part.Columns["v"]}}
	c1, err := cl2.MergeTableTagged(ctx, "cols", part, "cols-key-1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl2.MergeTableTagged(ctx, "cols", other, "cols-key-2")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c1.Columns) != "[v]" || fmt.Sprint(c2.Columns) != "[v w]" {
		t.Fatalf("merged columns %v then %v, want [v] then [v w]", c1.Columns, c2.Columns)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	log3, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	srv3, err := service.New(service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace, WAL: log3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv3.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	hs3 := httptest.NewServer(srv3.Handler())
	defer hs3.Close()
	cl3, err := client.New(hs3.URL)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := cl3.MergeTableTagged(ctx, "cols", part, "cols-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c3.Columns) != fmt.Sprint(c1.Columns) || float64(c3.StorageWords) != float64(c1.StorageWords) || c3.Merged != c1.Merged {
		t.Fatalf("replayed first merge answered %+v, want the original %+v", c3, c1)
	}
}

// TestWALReplayRefusesMisnamedRecord: a logged put or merge whose name
// is not its payload's table name fails the replay with an error naming
// both, publishes nothing, and leaves the server not ready.
func TestWALReplayRefusesMisnamedRecord(t *testing.T) {
	_, lake := lakePayloads(t, 1)
	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("b", lake["t00"].Keys, lake["t00"].Columns)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []wal.Op{wal.OpPut, wal.OpMerge} {
		dir := t.TempDir()
		log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(op, "a", "", payload); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		srv, _, cl := newWALServer(t, dir, service.Config{})
		_, err = srv.ReplayWAL()
		if err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), `"b"`) {
			t.Fatalf("%v: replay returned %v, want an error naming %q and %q", op, err, "a", "b")
		}
		if n := srv.Catalog().Len(); n != 0 {
			t.Fatalf("%v: failed replay published %d tables", op, n)
		}
		if err := cl.Ready(context.Background()); err == nil {
			t.Fatalf("%v: server ready after a failed replay", op)
		}
	}
}

// TestWALRecordMapsMutation: every mutation kind maps to its log op and
// back, name, tag and sketch bytes included.
func TestWALRecordMapsMutation(t *testing.T) {
	_, lake := lakePayloads(t, 1)
	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("t00", lake["t00"].Keys, lake["t00"].Columns)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mut catalog.Mutation
		op  wal.Op
	}{
		{catalog.Mutation{Op: catalog.MutationPut, Name: "t00", Sketch: sk}, wal.OpPut},
		{catalog.Mutation{Op: catalog.MutationMerge, Name: "t00", Sketch: sk, Tag: "k"}, wal.OpMerge},
		{catalog.Mutation{Op: catalog.MutationDelete, Name: "t00"}, wal.OpDelete},
	} {
		rec, err := service.WALRecord(tc.mut)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Op != tc.op || rec.Name != tc.mut.Name || rec.Tag != tc.mut.Tag || (tc.mut.Sketch != nil) != bytes.Equal(rec.Payload, payload) {
			t.Fatalf("%v: record %v %q %q with %d payload bytes", tc.op, rec.Op, rec.Name, rec.Tag, len(rec.Payload))
		}
		back, err := service.MutationOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back.Op != tc.mut.Op || back.Name != tc.mut.Name || back.Tag != tc.mut.Tag || (back.Sketch != nil) != (tc.mut.Sketch != nil) {
			t.Fatalf("%v: mapped back to %+v, want %+v", tc.op, back, tc.mut)
		}
		if back.Sketch != nil {
			b, err := back.Sketch.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, payload) {
				t.Fatalf("%v: sketch bytes changed through the record", tc.op)
			}
		}
	}
}

// TestDrainingReadyz: StartDraining flips /readyz to 503 while other
// endpoints keep serving (in-flight traffic finishes during a drain).
func TestDrainingReadyz(t *testing.T) {
	srv, cl := newTestServer(t, service.Config{})
	ctx := context.Background()
	if err := cl.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	srv.StartDraining()
	if err := cl.Ready(ctx); err == nil {
		t.Fatal("readyz still ready while draining")
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatalf("healthz died during drain: %v", err)
	}
}

// TestMergeIdempotencyKeysSurviveSnapshot: a keyed merge that a snapshot
// checkpoints away from the log is still answered from the dedupe cache
// after a restart, because the snapshot's key sidecar seeds it; a
// malformed sidecar fails the snapshot load with a *KeysError before any
// table is restored, a missing one loads the tables alone, and a snapshot
// taken with no keys removes a stale sidecar.
func TestMergeIdempotencyKeysSurviveSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, lake := lakePayloads(t, 2)
	cfg := service.Config{Sketch: mergeSketchCfg, KeySpace: testKeySpace, SnapshotPath: filepath.Join(dir, "cat.ipsx")}
	keysPath := cfg.SnapshotPath + service.KeysSuffix

	srv, log, cl := newWALServer(t, filepath.Join(dir, "wal"), cfg)
	if _, err := srv.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	r1, err := cl.MergeTableTagged(ctx, "tbl", lake["t00"], "snap-key")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keysPath); err != nil {
		t.Fatalf("snapshot wrote no key sidecar: %v", err)
	}
	lsn := log.LSN()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the checkpoint skips the merge's record, the sidecar keeps
	// its key.
	srv2, log2, cl2 := newWALServer(t, filepath.Join(dir, "wal"), cfg)
	if _, err := srv2.LoadSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n, err := srv2.ReplayWAL(); err != nil || n != 0 {
		t.Fatalf("replayed %d records past the checkpoint (err %v), want 0", n, err)
	}
	r2, err := cl2.MergeTableTagged(ctx, "tbl", lake["t00"], "snap-key")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Merged != r1.Merged || r2.Table != r1.Table || float64(r2.StorageWords) != float64(r1.StorageWords) {
		t.Fatalf("retry after restart answered %+v, first merge %+v", r2, r1)
	}
	if log2.LSN() != lsn {
		t.Fatalf("retry after restart logged a record: LSN %d, was %d", log2.LSN(), lsn)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	// A malformed sidecar is refused before any table loads.
	for _, bad := range []string{"not json", `[{"key":"","response":{"table":"tbl"}}]`, `{"key":"k"}`} {
		if err := os.WriteFile(keysPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		srv3, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ke *service.KeysError
		if _, err := srv3.LoadSnapshot(); !errors.As(err, &ke) || ke.Path != keysPath {
			t.Fatalf("sidecar %q: load err = %v, want a *KeysError for %s", bad, err, keysPath)
		}
		if srv3.Catalog().Len() != 0 {
			t.Fatalf("sidecar %q: a refused load restored %d tables", bad, srv3.Catalog().Len())
		}
	}

	// A missing sidecar is no error; a snapshot without keys leaves none.
	if err := os.Remove(keysPath); err != nil {
		t.Fatal(err)
	}
	srv4, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := srv4.LoadSnapshot(); err != nil || n != 1 {
		t.Fatalf("load without a sidecar: %d tables, err %v", n, err)
	}
	if err := os.WriteFile(keysPath, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv4.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keysPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a snapshot with no keys left a sidecar: %v", err)
	}
}
