// This file is sketchd's cluster mode: deterministic table placement on
// a consistent-hash ring, ingest/merge/delete forwarding to the owning
// node, scatter-gather /search across every ready peer with per-node
// deadlines and retries, and graceful degradation when a node is down
// (partial results by default, a typed 503 in strict mode). Placement
// and membership live in internal/cluster; the retry discipline is the
// hardened client's, shared via internal/httpretry. DESIGN.md §14.

package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ipsketch "repro"
	"repro/internal/cluster"
	"repro/internal/httpretry"
	"repro/internal/telemetry"
)

// Cluster-mode defaults.
const (
	// DefaultPeerTimeout is the per-node deadline for one forwarded
	// mutation or scatter-gather sub-query, retries included.
	DefaultPeerTimeout = 5 * time.Second
	// DefaultPeerAttempts bounds the requests per peer call: the first
	// attempt plus one backed-off retry, so a blip costs milliseconds but
	// a dead node cannot stall the fan-out beyond the peer deadline.
	DefaultPeerAttempts = 2
)

// ClusterConfig turns a server into a cluster node. Peers must contain
// Self; both are canonicalized with cluster.CanonicalPeer.
type ClusterConfig struct {
	// Self is this node's advertised base URL; Peers is the full
	// membership, self included, identical on every node.
	Self  string
	Peers []string
	// Strict refuses partial search results: any unreachable node turns
	// /search into a typed 503 (ErrCodeClusterDegraded) instead of a
	// degraded ranking.
	Strict bool
	// Replicas is the ring's virtual-node count per node (0 = the
	// cluster package default).
	Replicas int
	// Probe cadence, deadline, backoff cap, and failure threshold for the
	// peer health checker (0 = cluster package defaults).
	ProbeInterval, ProbeTimeout, ProbeBackoffCap time.Duration
	FailThreshold                                int
	// PeerTimeout is the per-node deadline for forwards and sub-queries
	// (0 = DefaultPeerTimeout); PeerAttempts the per-call request budget
	// (0 = DefaultPeerAttempts).
	PeerTimeout  time.Duration
	PeerAttempts int
}

// clusterState is the running cluster machinery hung off a Server.
type clusterState struct {
	cfg     ClusterConfig
	self    string
	ring    *cluster.Ring
	checker *cluster.Checker
	hc      *http.Client
	retry   *httpretry.Policy

	forwards atomic.Int64
	fanouts  atomic.Int64
	partials atomic.Int64

	partialCounter *telemetry.Counter
	peerUp         func(peer string, up bool)
	probeDone      func(peer string, seconds float64)
}

// initCluster validates and wires the cluster configuration; called
// from New when Config.Cluster is set.
func (s *Server) initCluster(cc ClusterConfig) error {
	self, err := cluster.CanonicalPeer(cc.Self)
	if err != nil {
		return fmt.Errorf("service: cluster self: %w", err)
	}
	if len(cc.Peers) == 0 {
		return errors.New("service: cluster mode needs a peer list")
	}
	peers := make([]string, 0, len(cc.Peers))
	selfListed := false
	for _, p := range cc.Peers {
		canon, err := cluster.CanonicalPeer(p)
		if err != nil {
			return fmt.Errorf("service: cluster peer: %w", err)
		}
		peers = append(peers, canon)
		if canon == self {
			selfListed = true
		}
	}
	if !selfListed {
		return fmt.Errorf("service: cluster self %q is not in the peer list", self)
	}
	var ringOpts []cluster.Option
	if cc.Replicas > 0 {
		ringOpts = append(ringOpts, cluster.WithReplicas(cc.Replicas))
	}
	ring, err := cluster.NewRing(peers, ringOpts...)
	if err != nil {
		return fmt.Errorf("service: cluster ring: %w", err)
	}
	if cc.PeerTimeout <= 0 {
		cc.PeerTimeout = DefaultPeerTimeout
	}
	if cc.PeerAttempts <= 0 {
		cc.PeerAttempts = DefaultPeerAttempts
	}
	cs := &clusterState{
		cfg:  cc,
		self: self,
		ring: ring,
		// Peer calls carry their own per-call context deadlines; the
		// transport-level timeout is a safety net above them.
		hc:    &http.Client{Timeout: 2 * cc.PeerTimeout},
		retry: httpretry.NewPolicy(cc.PeerAttempts, 25*time.Millisecond, cc.PeerTimeout/2),
	}
	var others []string
	for _, p := range peers {
		if p != self {
			others = append(others, p)
		}
	}
	cs.wireMetrics(s.metrics.reg)
	cs.checker = cluster.NewChecker(others, cluster.CheckerOptions{
		Probe:         cs.probeReadyz,
		Interval:      cc.ProbeInterval,
		Timeout:       cc.ProbeTimeout,
		FailThreshold: cc.FailThreshold,
		BackoffCap:    cc.ProbeBackoffCap,
		Observer:      (*clusterObserver)(cs),
	})
	// Publish the initial optimistic state so sketchd_peer_up has a
	// sample per peer before the first probe lands.
	for _, p := range others {
		cs.peerUp(p, true)
	}
	s.cluster = cs
	return nil
}

// wireMetrics registers the cluster instruments on the server registry.
// The per-peer gauge and histogram children are get-or-create by label,
// so the closures stay cheap after the first probe of each peer.
func (cs *clusterState) wireMetrics(reg *telemetry.Registry) {
	cs.partialCounter = reg.Counter("sketchd_search_partial_total",
		"Scatter-gather searches answered with at least one node missing.")
	cs.peerUp = func(peer string, up bool) {
		v := 0.0
		if up {
			v = 1
		}
		reg.Gauge("sketchd_peer_up",
			"Whether the health checker believes the peer is ready (1) or down (0).",
			telemetry.L("peer", peer)).Set(v)
	}
	cs.probeDone = func(peer string, seconds float64) {
		reg.Histogram("sketchd_peer_probe_seconds",
			"Peer /readyz probe latency, by peer.", nil, telemetry.L("peer", peer)).Observe(seconds)
	}
	reg.GaugeFunc("sketchd_cluster_nodes", "Ring membership size.",
		func() float64 { return float64(len(cs.ring.Nodes())) })
}

// clusterObserver adapts clusterState to cluster.HealthObserver.
type clusterObserver clusterState

func (o *clusterObserver) PeerUp(peer string, up bool) { (*clusterState)(o).peerUp(peer, up) }
func (o *clusterObserver) ProbeObserved(peer string, d time.Duration, err error) {
	(*clusterState)(o).probeDone(peer, d.Seconds())
}

// probeReadyz is the health checker's probe: GET {peer}/readyz, ready
// iff 200. A replaying or draining peer answers 503 and stays out of
// the fan-out until its WAL replay finishes — exactly the readmission
// gate the failover path needs.
func (cs *clusterState) probeReadyz(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := cs.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// StartCluster launches the peer health probes; a no-op outside cluster
// mode. The probes stop when ctx is canceled.
func (s *Server) StartCluster(ctx context.Context) {
	if s.cluster != nil {
		s.cluster.checker.Start(ctx)
	}
}

// StopCluster halts the probe loops (the daemon's shutdown path).
func (s *Server) StopCluster() {
	if s.cluster != nil {
		s.cluster.checker.Stop()
	}
}

// ClusterSelf returns this node's canonical identity ("" outside
// cluster mode).
func (s *Server) ClusterSelf() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.self
}

// ClusterOwner returns the node a table places on ("" outside cluster
// mode); exported for tests and operational tooling.
func (s *Server) ClusterOwner(table string) string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.ring.Owner(table)
}

// clusterStats assembles the /statsz cluster block.
func (cs *clusterState) stats() *ClusterStats {
	st := &ClusterStats{
		Self:            cs.self,
		Strict:          cs.cfg.Strict,
		Nodes:           len(cs.ring.Nodes()),
		Replicas:        cs.ring.Replicas(),
		Forwards:        cs.forwards.Load(),
		FanoutSearches:  cs.fanouts.Load(),
		PartialSearches: cs.partials.Load(),
	}
	for _, ps := range cs.checker.Snapshot() {
		st.Peers = append(st.Peers, ClusterPeerStats{
			Peer:                ps.Peer,
			Up:                  ps.Up,
			ConsecutiveFailures: ps.ConsecutiveFailures,
			Probes:              ps.Probes,
			Failures:            ps.Failures,
			LastLatencyMs:       float64(ps.LastLatency.Microseconds()) / 1e3,
			LastError:           ps.LastErr,
		})
	}
	return st
}

// forwardMutation routes a /tables/{name}... mutation to its owning
// node when that is not this one. It returns true when it fully handled
// the request (forwarded, or failed trying); false means the caller
// should apply the mutation locally. Requests already carrying
// HeaderForwarded are always applied locally, so membership
// disagreement degrades to misplacement, never a forwarding loop.
func (s *Server) forwardMutation(w http.ResponseWriter, r *http.Request, name string) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(HeaderForwarded) != "" {
		return false
	}
	owner := cs.ring.Owner(name)
	if owner == cs.self {
		return false
	}
	if !cs.checker.Ready(owner) {
		// Writes need the owner: unlike reads there is no partial
		// fallback. The typed 503 plus Retry-After lets hardened clients
		// back off until the owner's WAL replay readmits it.
		w.Header().Set("Retry-After", "1")
		s.writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeOwnerUnavailable,
			fmt.Errorf("service: table %q owner %s is down", name, owner))
		return true
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeBodyError(w, err)
		return true
	}
	status, respBody, respHeader, err := cs.roundTrip(r.Context(), owner, r.Method, r.URL.EscapedPath(),
		r.Header.Get("Content-Type"), body, forwardHeaders(r))
	if err != nil {
		s.writeErrorCode(w, http.StatusBadGateway, ErrCodeOwnerUnavailable,
			fmt.Errorf("service: forwarding %s %s to %s: %w", r.Method, r.URL.Path, owner, err))
		return true
	}
	cs.forwards.Add(1)
	for _, h := range []string{"Content-Type", HeaderIdempotentReplay, "Retry-After"} {
		if v := respHeader.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderForwardedTo, owner)
	w.WriteHeader(status)
	w.Write(respBody)
	return true
}

// forwardHeaders assembles the intra-cluster headers for a forwarded
// mutation: the loop guard, plus the caller's idempotency key and
// request ID so dedupe and correlation survive the hop.
func forwardHeaders(r *http.Request) map[string]string {
	h := map[string]string{HeaderForwarded: "1"}
	if key := r.Header.Get(HeaderIdempotencyKey); key != "" {
		h[HeaderIdempotencyKey] = key
	}
	if id := RequestIDFromContext(r.Context()); id != "" {
		h[HeaderRequestID] = id
	}
	return h
}

// roundTrip issues one intra-cluster request under the per-peer
// deadline, retrying transient failures within the policy's budget.
// Mutation forwards are always retry-safe here: PUT and DELETE are
// idempotent, and merges either carry an Idempotency-Key (the owner
// dedupes) or arrive via a client that already opted out of retries.
func (cs *clusterState) roundTrip(ctx context.Context, peer, method, path, contentType string, body []byte, headers map[string]string) (int, []byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, cs.cfg.PeerTimeout)
	defer cancel()
	var lastErr error
	retryAfter := ""
	for attempt := 0; attempt < cs.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := cs.retry.Sleep(ctx, attempt-1, retryAfter); err != nil {
				break
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, peer+path, rd)
		if err != nil {
			return 0, nil, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := cs.hc.Do(req)
		if err != nil {
			lastErr = err
			if !httpretry.RetryableTransport(err) || ctx.Err() != nil {
				break
			}
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if httpretry.RetryableStatus(resp.StatusCode) && attempt+1 < cs.retry.MaxAttempts {
			lastErr = fmt.Errorf("HTTP %d from %s", resp.StatusCode, peer)
			retryAfter = resp.Header.Get("Retry-After")
			continue
		}
		return resp.StatusCode, respBody, resp.Header, nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return 0, nil, nil, lastErr
}

// peerSearchResult is one node's contribution to a scatter-gather.
type peerSearchResult struct {
	peer string
	hits []SearchHit
	err  error
}

// scatterSearch fans a resolved query out to every ring node — the
// local catalog for self, POST /search with local_only for peers — and
// merges the per-node rankings under the catalog's deterministic
// (score desc, table, column) order, so the cluster ranking is
// bit-exact with a single node that ingested every table. Down peers
// are skipped (graceful degradation); failed or skipped nodes are
// reported in the envelope, or turn the whole answer into a typed 503
// in strict mode.
func (s *Server) scatterSearch(ctx context.Context, q ipsketch.Query, req *SearchRequest) (*SearchResponse, ipsketch.ScanStats, error, int) {
	cs := s.cluster
	cs.fanouts.Add(1)
	// An inline query's sketch is deliberately unnamed (the empty name
	// excludes nothing from the ranking) but the serialization refuses
	// unnamed bundles, so ship a placeholder and carry the authoritative
	// name in table_name — the peer restores it before searching.
	queryName := q.Sketch.Name
	if q.Sketch.Name == "" {
		q.Sketch.Name = "q"
	}
	blob, err := q.Sketch.MarshalBinary()
	q.Sketch.Name = queryName
	if err != nil {
		return nil, ipsketch.ScanStats{}, err, http.StatusBadRequest
	}
	// Peers score the exact sketch this node resolved (sketch once,
	// search everywhere): determinism by construction, and inline-table
	// queries are not re-sketched N times.
	peerReq, err := json.Marshal(SearchRequest{
		SketchB64: base64.StdEncoding.EncodeToString(blob),
		TableName: queryName,
		Column:    req.Column,
		RankBy:    req.RankBy,
		MinJoin:   req.MinJoin,
		K:         req.K,
		LocalOnly: true,
		// The coordinator resolves the probe default once, so every peer
		// probes identically even if defaults were to differ per node.
		Mode:   req.Mode,
		Probes: q.Probes,
	})
	if err != nil {
		return nil, ipsketch.ScanStats{}, err, http.StatusInternalServerError
	}

	nodes := cs.ring.Nodes()
	results := make([]peerSearchResult, len(nodes))
	var scan ipsketch.ScanStats
	var scanMu sync.Mutex
	var wg sync.WaitGroup
	for i, node := range nodes {
		results[i].peer = node
		if node == cs.self {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				hits, localScan, err := s.searchLocal(q)
				results[i].hits, results[i].err = hits, err
				scanMu.Lock()
				scan.Add(localScan)
				scan.SnapshotNanos += localScan.SnapshotNanos
				scan.ScanNanos += localScan.ScanNanos
				scan.MergeNanos += localScan.MergeNanos
				scan.FillNanos += localScan.FillNanos
				scanMu.Unlock()
			}(i)
			continue
		}
		if !cs.checker.Ready(node) {
			results[i].err = fmt.Errorf("service: peer %s is down", node)
			continue
		}
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			results[i].hits, results[i].err = cs.searchPeer(ctx, node, peerReq)
		}(i, node)
	}
	wg.Wait()

	// Non-nil so an empty (or fully degraded) ranking marshals as [],
	// matching the single-node path.
	merged := []SearchHit{}
	resp := &SearchResponse{NodesTotal: len(nodes)}
	var firstErr, selfErr error
	for _, pr := range results {
		if pr.err != nil {
			resp.NodesFailed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", pr.peer, pr.err)
			}
			if pr.peer == cs.self {
				selfErr = pr.err
			}
			continue
		}
		resp.NodesOK++
		merged = append(merged, pr.hits...)
	}
	// The self leg runs in-process, so its failure is a query error (bad
	// column, incompatible sketch) that would fail identically on every
	// node — surface it as the 400 it is, not as cluster degradation.
	if selfErr != nil {
		return nil, scan, selfErr, http.StatusBadRequest
	}
	if cs.cfg.Strict && resp.NodesFailed > 0 {
		return nil, scan, fmt.Errorf("service: cluster degraded, %d/%d nodes unavailable (first: %v)",
			resp.NodesFailed, resp.NodesTotal, firstErr), http.StatusServiceUnavailable
	}
	if resp.NodesOK == 0 {
		return nil, scan, fmt.Errorf("service: every cluster node failed (first: %v)", firstErr), http.StatusServiceUnavailable
	}

	mergeStart := time.Now()
	sortHits(merged)
	if q.K >= 0 && len(merged) > q.K {
		merged = merged[:q.K]
	}
	scan.MergeNanos += time.Since(mergeStart).Nanoseconds()
	resp.Results = merged
	if resp.NodesFailed > 0 {
		cs.partials.Add(1)
		cs.partialCounter.Inc()
	}
	return resp, scan, nil, 0
}

// sortHits orders hits by the catalog's deterministic ranking:
// score descending, then table, then column — the same comparator the
// per-shard and per-node merges use, so re-merging sorted sublists is
// associative and the final order is placement-independent.
func sortHits(hits []SearchHit) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Column < b.Column
	})
}

// searchPeer runs one node's sub-query under the per-peer deadline with
// the shared retry policy; peers answer with their local top-k only
// (LocalOnly), which the coordinator merges.
func (cs *clusterState) searchPeer(ctx context.Context, peer string, body []byte) ([]SearchHit, error) {
	status, respBody, _, err := cs.roundTrip(ctx, peer, http.MethodPost, "/search", "application/json", body, nil)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		var er ErrorResponse
		if json.Unmarshal(respBody, &er) == nil && er.Error != "" {
			return nil, fmt.Errorf("HTTP %d: %s", status, er.Error)
		}
		return nil, fmt.Errorf("HTTP %d", status)
	}
	var out SearchResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		return nil, fmt.Errorf("decoding peer response: %w", err)
	}
	return out.Results, nil
}

// searchLocal runs the catalog search and converts to wire hits; shared
// by the plain handler and the coordinator's self-leg.
func (s *Server) searchLocal(q ipsketch.Query) ([]SearchHit, ipsketch.ScanStats, error) {
	results, scan, err := s.cat.Search(q)
	if err != nil {
		return nil, scan, err
	}
	hits := make([]SearchHit, len(results))
	for i, r := range results {
		hits[i] = hitFromResult(r)
	}
	return hits, scan, nil
}
