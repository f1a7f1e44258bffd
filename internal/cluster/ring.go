// Package cluster is the placement and membership layer of a sketchd
// cluster: a consistent-hash ring that maps table names onto nodes
// deterministically (every node computes the same owner from the peer
// list alone, so forwarding needs no coordination service), and an
// active health checker that probes peers and tracks which are safe to
// fan out to. See DESIGN.md §14.
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"
)

// DefaultReplicas is the virtual-node count per node: enough that the
// largest arc share concentrates near 1/n, cheap enough that a ring
// rebuilds in microseconds.
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring over a fixed node set.
// Placement is deterministic: Owner depends only on the sorted node
// list and the replica count — never on insertion order, prior lookups,
// or the machine evaluating it. Safe for concurrent use.
type Ring struct {
	nodes    []string
	vnodes   []vnode
	replicas int
}

type vnode struct {
	hash  uint64
	owner int // index into nodes
}

// Option tunes ring construction.
type Option func(*Ring)

// WithReplicas sets the virtual-node count per node (min 1).
func WithReplicas(n int) Option {
	return func(r *Ring) {
		if n >= 1 {
			r.replicas = n
		}
	}
}

// NewRing builds a ring over the given node identifiers (typically
// canonical peer URLs from ParsePeerList). Nodes are deduplicated by
// exact string and sorted, so every peer constructing a ring from the
// same membership gets byte-identical placement. At least one node is
// required.
func NewRing(nodes []string, opts ...Option) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	r := &Ring{replicas: DefaultReplicas}
	for _, opt := range opts {
		opt(r)
	}
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node identifier")
		}
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = struct{}{}
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)

	r.vnodes = make([]vnode, 0, len(r.nodes)*r.replicas)
	for i, n := range r.nodes {
		for rep := 0; rep < r.replicas; rep++ {
			r.vnodes = append(r.vnodes, vnode{hash: hashString(fmt.Sprintf("%s#%d", n, rep)), owner: i})
		}
	}
	// Ties are broken by owner index (itself fixed by the name sort) so a
	// hash collision between two nodes' virtual points cannot make
	// placement depend on construction order.
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.owner < b.owner
	})
	return r, nil
}

// Nodes returns the ring's membership, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Replicas returns the virtual-node count per node.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the node a table name places on: the owner of the first
// virtual point clockwise of the name's hash (wrapping past zero).
func (r *Ring) Owner(table string) string {
	h := hashString(table)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash > h })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.nodes[r.vnodes[i].owner]
}

// hashString is the placement hash: FNV-64a, stable across platforms
// and Go releases, followed by the splitmix64 finalizer. FNV-64a alone
// avalanches weakly on trailing bytes, so a node's "#<rep>" vnode labels
// hashed into clusters and a three-node ring could leave a node owning
// almost nothing; the finalizer spreads them over the whole ring.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MaxPeers bounds a parsed peer list; a cluster larger than this is a
// configuration typo, not a deployment.
const MaxPeers = 1024

// ParsePeerList parses a cluster membership flag: peer base URLs
// separated by commas (whitespace around entries is ignored, empty
// entries are skipped). Each peer must be an absolute http:// or
// https:// URL with a host and no user info, path, query, or fragment;
// entries are canonicalized (scheme and host lowercased, trailing
// slash dropped) and the canonical list must be duplicate-free. The
// returned order preserves the input (the ring sorts for itself).
func ParsePeerList(s string) ([]string, error) {
	var peers []string
	seen := make(map[string]struct{})
	for _, raw := range strings.Split(s, ",") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		canon, err := CanonicalPeer(entry)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[canon]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", canon)
		}
		seen[canon] = struct{}{}
		peers = append(peers, canon)
		if len(peers) > MaxPeers {
			return nil, fmt.Errorf("cluster: more than %d peers", MaxPeers)
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}

// CanonicalPeer canonicalizes one peer base URL, rejecting anything
// placement must not depend on (paths, queries, credentials) so two
// spellings of one daemon cannot land on different ring points.
func CanonicalPeer(entry string) (string, error) {
	u, err := url.Parse(entry)
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %w", entry, err)
	}
	scheme := strings.ToLower(u.Scheme)
	if scheme != "http" && scheme != "https" {
		return "", fmt.Errorf("cluster: peer %q must be an http or https URL", entry)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q has no host", entry)
	}
	if u.User != nil {
		return "", fmt.Errorf("cluster: peer %q must not carry credentials", entry)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("cluster: peer %q must be a bare base URL (no path, query, or fragment)", entry)
	}
	return scheme + "://" + strings.ToLower(u.Host), nil
}
