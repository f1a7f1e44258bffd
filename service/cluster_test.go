package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	ipsketch "repro"
	"repro/internal/telemetry"
	"repro/service"
	"repro/service/client"
)

// testCluster is an in-process sketchd cluster: N servers on reserved
// listeners, each knowing the full membership.
type testCluster struct {
	urls    []string
	servers []*service.Server
	https   []*httptest.Server
}

// startTestCluster boots n cluster nodes. Peer URLs must exist before
// any node boots, so listeners are reserved first and handed to
// httptest servers afterwards. strictIdx (when ≥ 0) runs that one node
// in strict mode.
func startTestCluster(t *testing.T, n int, strictIdx int) *testCluster {
	t.Helper()
	return startTestClusterWith(t, n, strictIdx, nil)
}

// startTestClusterWith is startTestCluster with each node's
// configuration passed through tweak (when non-nil) before it boots.
func startTestClusterWith(t *testing.T, n int, strictIdx int, tweak func(*service.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := range lns {
		cfg := service.Config{
			Sketch:   testSketchCfg,
			KeySpace: testKeySpace,
			Cluster: &service.ClusterConfig{
				Self:          tc.urls[i],
				Peers:         tc.urls,
				Strict:        i == strictIdx,
				ProbeInterval: 20 * time.Millisecond,
				ProbeTimeout:  250 * time.Millisecond,
				FailThreshold: 2,
				PeerTimeout:   2 * time.Second,
			},
		}
		if tweak != nil {
			tweak(&cfg)
		}
		srv, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(srv.Handler())
		hs.Listener.Close()
		hs.Listener = lns[i]
		hs.Start()
		t.Cleanup(hs.Close)
		srv.StartCluster(ctx)
		t.Cleanup(srv.StopCluster)
		tc.servers = append(tc.servers, srv)
		tc.https = append(tc.https, hs)
	}
	return tc
}

// nodeIndex maps a canonical node URL back to its cluster index.
func (tc *testCluster) nodeIndex(t *testing.T, url string) int {
	t.Helper()
	for i, u := range tc.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("unknown node %q", url)
	return -1
}

// TestClusterForwardingPlacesOnOwner: a mutation sent to any node lands
// in the ring owner's catalog and nowhere else, and the proxy names the
// owner in X-Sketchd-Forwarded-To.
func TestClusterForwardingPlacesOnOwner(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, -1)
	_, lake := lakePayloads(t, 9)

	// All ingest goes through node 0, whoever the owner is.
	cl, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
	}
	// The lake's similar names can hash-cluster onto one node, so also
	// ingest one synthesized table per remote node to guarantee the
	// forwarding path is exercised.
	var anyPayload service.TablePayload
	for _, p := range lake {
		anyPayload = p
		break
	}
	var remoteName string
	for i := 0; len(lake) < 12; i++ {
		cand := fmt.Sprintf("spread-%d", i)
		if tc.nodeIndex(t, tc.servers[0].ClusterOwner(cand)) != 0 {
			lake[cand] = anyPayload
			if _, err := cl.PutTable(ctx, cand, anyPayload); err != nil {
				t.Fatalf("put %s: %v", cand, err)
			}
			if remoteName == "" {
				remoteName = cand
			}
		}
	}
	for name := range lake {
		ownerIdx := tc.nodeIndex(t, tc.servers[0].ClusterOwner(name))
		for i, srv := range tc.servers {
			_, found := srv.Catalog().Get(name)
			if want := i == ownerIdx; found != want {
				t.Errorf("table %s on node %d: found=%v, want %v (owner %d)", name, i, found, want, ownerIdx)
			}
		}
		// Every node must agree on the owner.
		for _, srv := range tc.servers[1:] {
			if srv.ClusterOwner(name) != tc.servers[0].ClusterOwner(name) {
				t.Errorf("nodes disagree on owner of %s", name)
			}
		}
	}

	// A forwarded request announces where it went.
	body, _ := json.Marshal(lake[remoteName])
	req, _ := http.NewRequest(http.MethodPut, tc.urls[0]+"/tables/"+remoteName, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(service.HeaderForwardedTo); got != tc.servers[0].ClusterOwner(remoteName) {
		t.Errorf("%s = %q, want %q", service.HeaderForwardedTo, got, tc.servers[0].ClusterOwner(remoteName))
	}
}

// TestClusterForwardedMergeIdempotent: the Idempotency-Key survives the
// forwarding hop — a retried merge through a non-owner is answered from
// the owner's dedupe cache, marked as a replay.
func TestClusterForwardedMergeIdempotent(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, -1)
	_, lake := lakePayloads(t, 6)

	// Placement is hash-driven, so synthesize a name that is owned by a
	// remote node (the lake's similar names can all land on one node).
	var name string
	var payload service.TablePayload
	for _, p := range lake {
		payload = p
		break
	}
	for i := 0; name == ""; i++ {
		cand := fmt.Sprintf("remote-%d", i)
		if tc.nodeIndex(t, tc.servers[0].ClusterOwner(cand)) != 0 {
			name = cand
		}
	}
	cl, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	key, err := client.NewIdempotencyKey()
	if err != nil {
		t.Fatal(err)
	}
	first, err := cl.MergeTableTagged(ctx, name, payload, key)
	if err != nil {
		t.Fatal(err)
	}
	// Re-send the identical merge with the same key, raw, to read the
	// replay header off the forwarded response.
	enc, _ := json.Marshal(payload)
	req, _ := http.NewRequest(http.MethodPost, tc.urls[0]+"/tables/"+name+"/merge", bytes.NewReader(enc))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get(service.HeaderIdempotentReplay) != "true" {
		t.Fatal("repeated merge through proxy not marked as idempotent replay")
	}
	var second service.MergeResponse
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("replay differs from original:\n got %+v\nwant %+v", second, first)
	}
}

// TestClusterSearchBitExact: a scatter-gather ranking over tables
// spread across three nodes must be bit-identical to a single node
// holding every table — scores, stats, and order.
func TestClusterSearchBitExact(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, -1)
	query, lake := lakePayloads(t, 14)

	clCluster, err := client.New(tc.urls[1])
	if err != nil {
		t.Fatal(err)
	}
	_, clSolo := newTestServer(t, service.Config{})
	for name, p := range lake {
		if _, err := clCluster.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
		if _, err := clSolo.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, rankBy := range []string{"join_size", "abs_correlation", "abs_inner_product"} {
		for _, k := range []int{1, 5, len(lake), -1} {
			req := service.SearchRequest{Table: &query, Column: "v", RankBy: rankBy, MinJoin: 1}
			if k >= 0 {
				kk := k
				req.K = &kk
			}
			want, err := clSolo.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := clCluster.SearchFull(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if got.NodesTotal != 3 || got.NodesOK != 3 || got.NodesFailed != 0 {
				t.Fatalf("by=%s k=%d: envelope %d/%d/%d, want 3/3/0",
					rankBy, k, got.NodesTotal, got.NodesOK, got.NodesFailed)
			}
			results := make([]ipsketch.SearchResult, len(got.Results))
			for i, h := range got.Results {
				results[i] = h.Result()
			}
			requireSameRanking(t, results, want, fmt.Sprintf("cluster by=%s k=%d", rankBy, k))
		}
	}
}

// tiedLakePayloads is a lake built to tie: groups of tables share one key
// set each (bit-equal join-size estimates for every column of the group),
// with two columns per table, so a top-k under join_size cuts through
// tables, tie groups, shards and nodes.
func tiedLakePayloads(t testing.TB) (service.TablePayload, map[string]service.TablePayload) {
	t.Helper()
	query, _ := lakePayloads(t, 0)
	rows := len(query.Keys)
	lake := map[string]service.TablePayload{}
	for j := 0; j < 18; j++ {
		stride := uint64(j%3 + 1)
		keys := make([]uint64, rows/2)
		v := make([]float64, len(keys))
		w := make([]float64, len(keys))
		for i := range keys {
			keys[i] = stride * uint64(i)
			v[i] = float64((i*7+j)%11) - 5
			w[i] = float64((i*3+2*j)%13) - 6
		}
		lake[fmt.Sprintf("%c%02d", 'a'+(j*11)%26, j)] = service.TablePayload{Keys: keys, Columns: map[string][]float64{"v": v, "w": w}}
	}
	return query, lake
}

// TestClusterSearchTieHeavy: on a lake built to tie, a 2-node cluster
// (each node fills only its own top k, the coordinator merges) must
// answer bit-identically to a single node and to the in-process
// name-sorted single index, for every rank_by and k shape.
func TestClusterSearchTieHeavy(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 2, -1)
	query, lake := tiedLakePayloads(t)
	clCluster, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	_, clSolo := newTestServer(t, service.Config{})
	for name, p := range lake {
		if _, err := clCluster.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
		if _, err := clSolo.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	ts, ref := referenceIndex(t, lake)
	qTab, err := ipsketch.NewTable("", query.Keys, query.Columns)
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qTab)
	if err != nil {
		t.Fatal(err)
	}
	columns := 2 * len(lake)
	for _, rankBy := range []string{"join_size", "abs_correlation", "abs_inner_product"} {
		by, err := service.ParseRankBy(rankBy)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 7, columns, columns + 5, -1} {
			label := fmt.Sprintf("by=%s k=%d", rankBy, k)
			want, _, err := ref.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: by, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if rankBy == "join_size" && k < 0 {
				scores := map[float64]bool{}
				for _, r := range want {
					scores[r.Score] = true
				}
				if len(want) != columns || len(scores) > 3 {
					t.Fatalf("lake does not tie: %d results over %d distinct scores", len(want), len(scores))
				}
			}
			req := service.SearchRequest{Table: &query, Column: "v", RankBy: rankBy}
			if k >= 0 {
				kk := k
				req.K = &kk
			}
			solo, err := clSolo.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, solo, want, "single node "+label)
			got, err := clCluster.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRanking(t, got, want, "cluster "+label)
		}
	}
}

// TestClusterDegradation: with one node dead, the default mode answers
// partial (header + envelope counts), and a strict node answers a typed
// 503 instead.
func TestClusterDegradation(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, 2) // node 2 strict
	query, lake := lakePayloads(t, 10)
	cl, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}

	tc.https[1].Close() // node 1 dies

	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", MinJoin: 1}
	enc, _ := json.Marshal(req)

	// Default mode: partial results, flagged.
	raw, err := http.Post(tc.urls[0]+"/search", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("degraded search on lenient node: HTTP %d", raw.StatusCode)
	}
	if raw.Header.Get(service.HeaderPartialResults) != "true" {
		t.Errorf("missing %s header on partial response", service.HeaderPartialResults)
	}
	var partial service.SearchResponse
	if err := json.NewDecoder(raw.Body).Decode(&partial); err != nil {
		t.Fatal(err)
	}
	if partial.NodesTotal != 3 || partial.NodesOK != 2 || partial.NodesFailed != 1 {
		t.Fatalf("partial envelope %d/%d/%d, want 3/2/1", partial.NodesTotal, partial.NodesOK, partial.NodesFailed)
	}

	// The live nodes' tables are all present; only node 1's are missing.
	want := make(map[string]bool)
	for name := range lake {
		if tc.nodeIndex(t, tc.servers[0].ClusterOwner(name)) != 1 {
			want[name] = true
		}
	}
	got := make(map[string]bool)
	for _, h := range partial.Results {
		got[h.Table] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("live node's table %s missing from partial results", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("dead node's table %s present in partial results", name)
		}
	}

	// Strict mode: typed 503.
	clStrict, err := client.New(tc.urls[2], client.WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = clStrict.Search(ctx, req)
	if client.StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("strict search with a dead node: %v, want HTTP 503", err)
	}
	if client.CodeOf(err) != service.ErrCodeClusterDegraded {
		t.Fatalf("strict 503 code = %q, want %q", client.CodeOf(err), service.ErrCodeClusterDegraded)
	}

	// Mutations owned by the dead node refuse with a typed error; other
	// owners keep accepting.
	var deadOwned, liveOwned string
	for name := range lake {
		switch tc.nodeIndex(t, tc.servers[0].ClusterOwner(name)) {
		case 1:
			deadOwned = name
		case 0:
			liveOwned = name
		}
	}
	if deadOwned != "" {
		clNoRetry, err := client.New(tc.urls[0], client.WithRetry(1, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		_, err = clNoRetry.PutTable(ctx, deadOwned, lake[deadOwned])
		if client.CodeOf(err) != service.ErrCodeOwnerUnavailable {
			t.Fatalf("put to dead owner: %v, want code %q", err, service.ErrCodeOwnerUnavailable)
		}
	}
	if liveOwned != "" {
		if _, err := cl.PutTable(ctx, liveOwned, lake[liveOwned]); err != nil {
			t.Fatalf("put to live owner during degradation: %v", err)
		}
	}

	// /statsz reports the degradation.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil {
		t.Fatal("no cluster block in /statsz")
	}
	if stats.Cluster.Nodes != 3 || stats.Cluster.Self != tc.urls[0] {
		t.Fatalf("cluster stats %+v", stats.Cluster)
	}
	if stats.Cluster.PartialSearches == 0 {
		t.Error("partial search not counted in cluster stats")
	}
	downSeen := false
	for _, p := range stats.Cluster.Peers {
		if p.Peer == tc.urls[1] && !p.Up {
			downSeen = true
		}
	}
	if !downSeen {
		// The checker may still be within its failure threshold; wait for
		// it, then re-read.
		deadline := time.Now().Add(5 * time.Second)
		for !downSeen && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			stats, err = cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range stats.Cluster.Peers {
				if p.Peer == tc.urls[1] && !p.Up {
					downSeen = true
				}
			}
		}
		if !downSeen {
			t.Error("dead peer never marked down in cluster stats")
		}
	}
}

// TestClusterLocalOnly: a local_only search must not fan out — each
// node answers from its own catalog alone (the guard that makes the
// coordinator's sub-queries terminate).
func TestClusterLocalOnly(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, -1)
	query, lake := lakePayloads(t, 8)
	cl0, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range lake {
		if _, err := cl0.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := range tc.urls {
		cli, err := client.New(tc.urls[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.SearchFull(ctx, service.SearchRequest{
			Table: &query, Column: "v", RankBy: "join_size", MinJoin: 1, LocalOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.NodesTotal != 0 {
			t.Fatalf("local_only response has fan-out envelope: %+v", resp)
		}
		if len(resp.Results) != tc.servers[i].Catalog().Len() {
			t.Fatalf("node %d local_only returned %d results, catalog holds %d",
				i, len(resp.Results), tc.servers[i].Catalog().Len())
		}
		total += len(resp.Results)
	}
	if total != len(lake) {
		t.Fatalf("local shards sum to %d tables, want %d", total, len(lake))
	}
}

// TestClusterMetricsLint: a cluster-mode /metrics exposition is
// lint-clean and carries the cluster instruments — per-peer up gauge,
// probe latency histogram, partial-search counter, membership gauge.
func TestClusterMetricsLint(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, 3, -1)
	query, lake := lakePayloads(t, 6)
	cl, err := client.New(tc.urls[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			t.Fatal(err)
		}
	}
	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", MinJoin: 1}
	if _, err := cl.SearchFull(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Kill a node and search again so the partial counter moves.
	tc.https[2].Close()
	if _, err := cl.SearchFull(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one probe round against both peers.
	deadline := time.Now().Add(5 * time.Second)
	var body []byte
	for {
		_, _, body = scrape(t, tc.urls[0], "/metrics")
		if bytes.Contains(body, []byte("sketchd_peer_probe_seconds_count")) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, err := range telemetry.Lint(body) {
		t.Errorf("lint: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf(`sketchd_peer_up{peer=%q}`, tc.urls[1]),
		fmt.Sprintf(`sketchd_peer_up{peer=%q}`, tc.urls[2]),
		fmt.Sprintf(`sketchd_peer_probe_seconds_count{peer=%q}`, tc.urls[1]),
		"sketchd_search_partial_total 1",
		"sketchd_cluster_nodes 3",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestClusterBuildInfo: /healthz and /statsz carry the build block.
func TestClusterBuildInfo(t *testing.T) {
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

// TestClusterConfigRejected: misconfigurations fail at New, not at
// first request.
func TestClusterConfigRejected(t *testing.T) {
	base := service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace}
	cases := []service.ClusterConfig{
		{Self: "http://a:1", Peers: []string{"http://b:2"}},               // self not a member
		{Self: "http://a:1", Peers: nil},                                  // empty membership
		{Self: "ftp://a:1", Peers: []string{"ftp://a:1"}},                 // bad scheme
		{Self: "http://a:1/x", Peers: []string{"http://a:1/x"}},           // path in peer URL
		{Self: "http://a:1", Peers: []string{"http://a:1", "http://a:1"}}, // duplicate
	}
	for i, cc := range cases {
		cfg := base
		ccCopy := cc
		cfg.Cluster = &ccCopy
		if _, err := service.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cc)
		}
	}
}
