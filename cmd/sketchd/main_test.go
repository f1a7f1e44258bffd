package main

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	ipsketch "repro"
	"repro/service"
	"repro/service/client"
)

// startDaemon runs the daemon on a random port with the given extra args
// and returns a client plus a stop function that shuts it down gracefully
// (writing the final snapshot) and waits for exit.
func startDaemon(t *testing.T, args ...string) (*client.Client, func()) {
	t.Helper()
	cl, _, stop := startDaemonOut(t, testWriter{t}, args...)
	return cl, stop
}

// startDaemonOut is startDaemon with a caller-chosen log sink and the
// resolved listen address exposed, for tests that assert on daemon output
// or hit endpoints the typed client doesn't wrap.
func startDaemonOut(t *testing.T, out io.Writer, args ...string) (*client.Client, string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	cl, err := client.New("http://" + addr)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return cl, addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited")
		}
	}
}

// testWriter routes daemon logs through the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
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

// TestSketchdSmoke is the end-to-end service smoke: start the daemon on a
// random port, ingest three tables, assert the /search ranking is
// bit-exact with the in-process Search ranking, snapshot, restart,
// and re-query bit-exactly.
func TestSketchdSmoke(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "catalog.ipsx")
	cfgArgs := []string{"-method", "WMH", "-storage", "300", "-seed", "42", "-keyspace", "1048576", "-shards", "4", "-snapshot", snap}
	cl, stopDaemon := startDaemon(t, cfgArgs...)
	ctx := context.Background()

	// Three tables sharing keys with the query, with distinct overlap so
	// the ranking is meaningful.
	tables := map[string]service.TablePayload{
		"alpha": {Keys: []uint64{0, 1, 2, 3, 4, 5, 6, 7}, Columns: map[string][]float64{"v": {1, 2, 3, 4, 5, 6, 7, 8}}},
		"beta":  {Keys: []uint64{0, 2, 4, 6, 8, 10}, Columns: map[string][]float64{"v": {2, 4, 6, 8, 10, 12}}},
		"gamma": {Keys: []uint64{1, 3, 5, 100, 101}, Columns: map[string][]float64{"v": {-1, -2, -3, 9, 9}}},
	}
	for name, p := range tables {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tables != 3 {
		t.Fatalf("tables = %d", h.Tables)
	}

	query := service.TablePayload{
		Keys:    []uint64{0, 1, 2, 3, 4, 5, 8, 10},
		Columns: map[string][]float64{"v": {1, 2, 3, 4, 5, 6, 7, 8}},
	}

	// In-process ground truth: same config, tables added in name-sorted
	// order (the catalog's canonical scan order).
	ts, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 300, Seed: 42}, 1048576)
	if err != nil {
		t.Fatal(err)
	}
	ix := ipsketch.NewSketchIndex()
	for _, name := range []string{"alpha", "beta", "gamma"} {
		p := tables[name]
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
	qTab, err := ipsketch.NewTable("query", query.Keys, query.Columns)
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qTab)
	if err != nil {
		t.Fatal(err)
	}

	checkSearch := func(cl *client.Client, label string) []ipsketch.SearchResult {
		t.Helper()
		var last []ipsketch.SearchResult
		for _, rankBy := range []string{"join_size", "abs_correlation", "abs_inner_product"} {
			by, err := service.ParseRankBy(rankBy)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ix.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, K: -1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Search(ctx, service.SearchRequest{Table: &query, Column: "v", RankBy: rankBy})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d results, want %d", label, rankBy, len(got), len(want))
			}
			for i := range want {
				if !resultsIdentical(got[i], want[i]) {
					t.Fatalf("%s %s: rank %d differs:\n got %+v\nwant %+v", label, rankBy, i, got[i], want[i])
				}
			}
			last = got
		}
		return last
	}
	before := checkSearch(cl, "pre-restart")

	// Snapshot explicitly, then shut down (which snapshots again) and
	// restart from the file.
	if _, err := cl.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	stopDaemon()

	cl2, stopDaemon2 := startDaemon(t, cfgArgs...)
	defer stopDaemon2()
	h2, err := cl2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Tables != 3 {
		t.Fatalf("tables after restart = %d", h2.Tables)
	}
	after := checkSearch(cl2, "post-restart")
	if len(after) != len(before) {
		t.Fatalf("post-restart ranking length %d vs %d", len(after), len(before))
	}
	for i := range before {
		if !resultsIdentical(after[i], before[i]) {
			t.Fatalf("post-restart rank %d differs: %+v vs %+v", i, after[i], before[i])
		}
	}

	// Stats survive the endpoint surface after restart.
	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 3 || st.Shards != 4 || st.Method != "WMH" {
		t.Fatalf("stats after restart: %+v", st)
	}
}

func TestSketchdRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-method", "NOPE"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	err = run(context.Background(), []string{"-storage", "0"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("zero storage accepted")
	}
	// ICWS was removed; its name no longer parses as a method.
	err = run(context.Background(), []string{"-method", "ICWS"}, testWriter{t}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("-method ICWS: err = %v, want the unknown-method error", err)
	}
	// The polynomial-log record process and its flag were removed; the
	// flag package must say so rather than the daemon ignoring it.
	err = run(context.Background(), []string{"-fasthash"}, testWriter{t}, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-fasthash: err = %v, want the flag package's undefined-flag error", err)
	}
}

// TestSketchdDartBoots: the one remaining construction flag still selects
// the dart WMH construction end to end.
func TestSketchdDartBoots(t *testing.T) {
	cl, stop := startDaemon(t, "-dart", "-storage", "60")
	defer stop()
	ctx := context.Background()
	tbl := service.TablePayload{Keys: []uint64{1, 2, 3, 5}, Columns: map[string][]float64{"v": {1, -2, 3, 4}}}
	if _, err := cl.PutTable(ctx, "t", tbl); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, service.SearchRequest{Table: &tbl, Column: "v", RankBy: "join_size"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Table != "t" {
		t.Fatalf("search over the dart catalog: %+v", res)
	}
}

// TestSketchdDistributedMerge is the distributed-ingest e2e: two clients
// each hold a disjoint row partition of every table and push their halves
// through POST /tables/{name}/merge concurrently; a second daemon gets
// each table in one PUT. The two catalogs must answer /search
// bit-exactly the same.
func TestSketchdDistributedMerge(t *testing.T) {
	cfgArgs := []string{"-method", "MH", "-storage", "200", "-seed", "13", "-keyspace", "1048576", "-shards", "4"}
	clMerge, stopMerge := startDaemon(t, cfgArgs...)
	defer stopMerge()
	clFull, stopFull := startDaemon(t, cfgArgs...)
	defer stopFull()
	ctx := context.Background()

	mkTable := func(seed, rows int) service.TablePayload {
		keys := make([]uint64, rows)
		vals := make([]float64, rows)
		for i := range keys {
			keys[i] = uint64(i*3 + seed)
			vals[i] = float64((i*seed)%11 + 1)
		}
		return service.TablePayload{Keys: keys, Columns: map[string][]float64{"v": vals}}
	}
	split := func(p service.TablePayload) (lo, hi service.TablePayload) {
		half := len(p.Keys) / 2
		lo = service.TablePayload{Keys: p.Keys[:half], Columns: map[string][]float64{"v": p.Columns["v"][:half]}}
		hi = service.TablePayload{Keys: p.Keys[half:], Columns: map[string][]float64{"v": p.Columns["v"][half:]}}
		return lo, hi
	}

	tables := map[string]service.TablePayload{
		"alpha": mkTable(1, 60),
		"beta":  mkTable(2, 48),
		"gamma": mkTable(5, 72),
	}
	// The two "producers" push their partitions concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(tables))
	for name, p := range tables {
		lo, hi := split(p)
		if _, err := clFull.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
		for _, part := range []service.TablePayload{lo, hi} {
			wg.Add(1)
			go func(name string, part service.TablePayload) {
				defer wg.Done()
				if _, err := clMerge.MergeTable(ctx, name, part); err != nil {
					errs <- err
				}
			}(name, part)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	query := mkTable(3, 40)
	for _, rankBy := range []string{"join_size", "abs_inner_product"} {
		req := service.SearchRequest{Table: &query, Column: "v", RankBy: rankBy}
		got, err := clMerge.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clFull.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results via merge, %d via single ingest", rankBy, len(got), len(want))
		}
		for i := range want {
			if !resultsIdentical(got[i], want[i]) {
				t.Fatalf("%s: rank %d differs:\n merge %+v\n  full %+v", rankBy, i, got[i], want[i])
			}
		}
	}
}
