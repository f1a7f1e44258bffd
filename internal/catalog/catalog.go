// Package catalog is the concurrent, shard-striped table-sketch catalog
// behind the serving layer: it wraps the library's SketchIndex semantics
// (add/replace/remove/get) in a form that absorbs concurrent ingest while
// answering top-k searches, and persists to the frozen index envelope.
//
// # Concurrency model
//
// Tables are striped across shards by a hash of their name. Each shard
// publishes ONE immutable object — a name-sorted SketchIndex, packed for
// the columnar scan and banded for LSH — behind an atomic pointer:
// writers serialize on the shard's mutex, stage the shard's table set,
// edit it, build the replacement index and store the pointer, so readers
// never block — queries never wait on sketching or index rebuilding. A
// reader loads the pointer and works lock-free from there; what it holds
// is a consistent shard state that concurrent ingest can never mutate.
// Every published index is built by one function (publish), whether the
// staged edits came from a live Put/Merge/Delete or from a Restore.
//
// # Search determinism
//
// Per-shard indexes keep their entries sorted by table name, so every
// shard ranks with the same total order — score descending, then table
// name, then column name — that a single name-sorted SketchIndex uses.
// Search runs the library's bounded-heap search over every shard
// snapshot at once (ipsketch.SearchIndexes) and merges under that order,
// which makes the sharded ranking bit-exact with Snapshot().Search:
// the union of per-worker top-k sets always contains the global top k,
// and ties (even across shard boundaries) break identically.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ipsketch "repro"
	"repro/internal/fsx"
)

// Observer receives one latency observation in seconds. It is satisfied
// by *telemetry.Histogram; declaring it here keeps the catalog free of
// any telemetry dependency.
type Observer interface {
	Observe(v float64)
}

// DefaultShards is the shard count when Options.Shards is zero: enough
// stripes that writers rarely collide, few enough that per-shard indexes
// stay large and search fan-out cheap.
const DefaultShards = 16

// MutationOp identifies a catalog mutation kind for OnMutate hooks.
type MutationOp int

// The mutation kinds.
const (
	MutationPut    MutationOp = iota + 1 // replace the named sketch
	MutationMerge                        // fold a partial into the named sketch
	MutationDelete                       // remove the named sketch
)

// Mutation describes one catalog mutation as seen by an OnMutate hook.
// For MutationMerge, Sketch is the incoming PARTIAL (not the merged
// result): re-applying the same partials in order reconverges exactly,
// which is what makes the write-ahead log a sufficient durability record.
type Mutation struct {
	Op     MutationOp
	Name   string
	Sketch *ipsketch.TableSketch // nil for MutationDelete
	Tag    string                // merge idempotency key ("" otherwise)
}

// Options configures a catalog.
type Options struct {
	// Shards is the stripe count (0 = DefaultShards).
	Shards int
	// Strict is ignored: every catalog pins its configuration (see Pin).
	//
	// Deprecated: it stays only until the benchmark harness stops setting
	// it (ROADMAP.md item 4).
	Strict bool
	// OnMutate, when set, is called for every admitted mutation while the
	// target shard's write mutex is held, after the replacement shard
	// index is built and BEFORE it is published: write-ahead semantics. A
	// mutation whose index fails to build never reaches the hook, an error
	// from the hook fails the mutation without publishing it, and the
	// per-table hook order is exactly the publish order, so replaying the
	// hooked mutations reconstructs the catalog.
	OnMutate func(Mutation) error
	// PublishObserver, when set, receives the seconds each publish spent
	// rebuilding a shard's copy-on-write state (index rebuild + columnar
	// pack + pointer store; the hook in between is not counted) — the
	// write-side latency a reader never sees but every ingest pays. A live
	// mutation publishes once; a Restore publishes once per shard it
	// touched, however many tables it staged.
	PublishObserver Observer
	// LSH, when set, maintains a banded candidate index alongside every
	// published shard index (rebuilt at publish time exactly like the
	// columnar views, so readers never observe a stale candidate set) and
	// enables lsh-mode Search. Invalid parameters fail the first mutation.
	LSH *ipsketch.LSHParams
}

// shard is one stripe: its published index, immutable once stored, and
// the mutex that serializes whoever builds the next one.
type shard struct {
	writeMu sync.Mutex // held across stage + edit + build + hook + store
	ix      atomic.Pointer[ipsketch.SketchIndex]
}

// staged is a shard's table set under edit: the published entries plus
// the edits applied so far. Only the holder of the shard's writeMu has
// one; nothing is visible to readers until publish.
type staged map[string]*ipsketch.TableSketch

// absorb registers every entry of ix in m.
func (m staged) absorb(ix *ipsketch.SketchIndex) {
	for _, name := range ix.Tables() {
		m[name], _ = ix.Get(name)
	}
}

// stage copies the shard's published table set (the caller holds writeMu).
func (sh *shard) stage() staged {
	ix := sh.ix.Load()
	m := make(staged, ix.Len()+1)
	m.absorb(ix)
	return m
}

// merge folds ts into the staged table of its name, or registers it when
// there is none, and returns the resulting table and whether a merge
// happened.
func (m staged) merge(ts *ipsketch.TableSketch) (*ipsketch.TableSketch, bool, error) {
	prev, existed := m[ts.Name]
	if existed {
		merged, err := prev.Merge(ts)
		if err != nil {
			return nil, false, fmt.Errorf("catalog: merging into %q: %w", ts.Name, err)
		}
		ts = merged
	}
	m[ts.Name] = ts
	return ts, existed, nil
}

// publish builds the index over m, runs the OnMutate hook for a live
// mutation (mut non-nil), and makes the index the shard's published state
// — the one place that state is derived. A build or hook failure publishes
// nothing, and a failed build never reaches the hook, so the write-ahead
// log holds only mutations that published. The caller holds the shard's
// writeMu.
func (c *Catalog) publish(sh *shard, m staged, mut *Mutation) error {
	start := time.Now()
	ix, err := sortedIndex(m, c.lsh)
	if err != nil {
		return err
	}
	took := time.Since(start)
	if mut != nil {
		if err := c.hook(*mut); err != nil {
			return err
		}
	}
	start = time.Now()
	sh.ix.Store(ix)
	if c.publishObs != nil {
		c.publishObs.Observe((took + time.Since(start)).Seconds())
	}
	return nil
}

// Catalog is a sharded concurrent table-sketch catalog.
type Catalog struct {
	shards     []shard
	onMutate   func(Mutation) error
	publishObs Observer
	lsh        *ipsketch.LSHParams

	// pin is the configuration every table must share: the first table
	// ever put, unless Pin set it first. It survives removal so an emptied
	// catalog keeps rejecting the same mismatches.
	pinMu sync.Mutex
	pin   *ipsketch.TableSketch

	// restoreMu serializes Restores: each holds several shard mutexes at
	// once, taken in the order its edits arrive.
	restoreMu sync.Mutex
}

// New returns an empty catalog.
func New(opts Options) *Catalog {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	c := &Catalog{shards: make([]shard, n), onMutate: opts.OnMutate, publishObs: opts.PublishObserver, lsh: opts.LSH}
	for i := range c.shards {
		ix := ipsketch.NewSketchIndex()
		if c.lsh != nil {
			// Empty shards must answer lsh-mode searches too. Invalid
			// banding parameters are reported by the first mutation
			// instead (New has no error return).
			_, _ = ix.BuildLSH(*c.lsh)
		}
		c.shards[i].ix.Store(ix)
	}
	return c
}

// Shards returns the stripe count.
func (c *Catalog) Shards() int { return len(c.shards) }

// shardOf stripes a table name (FNV-1a 64).
func (c *Catalog) shardOf(name string) int {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return int(h % uint64(len(c.shards)))
}

func (c *Catalog) shardFor(name string) *shard { return &c.shards[c.shardOf(name)] }

// Pin fixes the catalog's configuration to the given reference sketch
// before any table arrives, so even the very first Put is validated
// (otherwise the first table pins whatever configuration it came with).
// It fails if an incompatible pin is already set.
func (c *Catalog) Pin(ref *ipsketch.TableSketch) error {
	if ref == nil {
		return errors.New("catalog: nil pin sketch")
	}
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	if c.pin == nil {
		c.pin = ref
		return nil
	}
	if err := ref.CompatibleWith(c.pin); err != nil {
		return fmt.Errorf("catalog: re-pinning: %w", err)
	}
	c.pin = ref
	return nil
}

// checkPin enforces the configuration pin.
func (c *Catalog) checkPin(ts *ipsketch.TableSketch) error {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	if c.pin == nil {
		c.pin = ts
		return nil
	}
	if err := ts.CompatibleWith(c.pin); err != nil {
		return fmt.Errorf("catalog: putting %q: %w", ts.Name, err)
	}
	return nil
}

// admit runs the checks every sketch entering the catalog passes, live or
// restored: a usable name, envelope serializability (so a catalog that
// accepted a sketch can always be saved and restored), and the
// configuration pin.
func (c *Catalog) admit(ts *ipsketch.TableSketch) error {
	if ts == nil {
		return errors.New("catalog: nil table sketch")
	}
	if ts.Name == "" {
		return errors.New("catalog: table sketch has an empty name")
	}
	if len(ts.Name) > ipsketch.MaxNameLen {
		return fmt.Errorf("catalog: table name of %d bytes exceeds the serializable maximum", len(ts.Name))
	}
	for _, col := range ts.Columns() {
		if len(col) > ipsketch.MaxNameLen {
			return fmt.Errorf("catalog: column name of %d bytes exceeds the serializable maximum", len(col))
		}
	}
	return c.checkPin(ts)
}

// Put registers a table sketch, replacing any previous sketch of the same
// name. Concurrent Puts never lose updates; concurrent readers keep their
// snapshots.
func (c *Catalog) Put(ts *ipsketch.TableSketch) error {
	if err := c.admit(ts); err != nil {
		return err
	}
	sh := c.shardFor(ts.Name)
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	m := sh.stage()
	m[ts.Name] = ts
	return c.publish(sh, m, &Mutation{Op: MutationPut, Name: ts.Name, Sketch: ts})
}

// hook runs the OnMutate hook (the caller holds the shard write mutex).
func (c *Catalog) hook(m Mutation) error {
	if c.onMutate == nil {
		return nil
	}
	if err := c.onMutate(m); err != nil {
		return fmt.Errorf("catalog: mutation hook for %q: %w", m.Name, err)
	}
	return nil
}

// Merge folds a partial table sketch into the cataloged sketch of the
// same name, creating the entry when absent, and reports whether a merge
// happened (false means the partial became the first sketch under that
// name). The read-merge-publish sequence runs under the shard's write
// mutex, so concurrent partial pushes for one table serialize and never
// lose updates — the property distributed producers rely on when each
// pushes its partition's sketch independently.
func (c *Catalog) Merge(ts *ipsketch.TableSketch) (bool, error) {
	return c.MergeTagged(ts, "")
}

// MergeTagged is Merge carrying an idempotency tag through to the
// OnMutate hook (the serving layer's client-supplied request ID, logged
// so a replayed log can rebuild the dedupe state). The hook sees the
// incoming partial, and only after the merge and the shard's index build
// are known to succeed — a logged mutation always re-applies cleanly on
// replay.
func (c *Catalog) MergeTagged(ts *ipsketch.TableSketch, tag string) (bool, error) {
	if err := c.admit(ts); err != nil {
		return false, err
	}
	sh := c.shardFor(ts.Name)
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	m := sh.stage()
	_, existed, err := m.merge(ts)
	if err != nil {
		return false, err
	}
	if err := c.publish(sh, m, &Mutation{Op: MutationMerge, Name: ts.Name, Sketch: ts, Tag: tag}); err != nil {
		return false, err
	}
	return existed, nil
}

// Delete deletes the table, reporting whether it was present and any
// publish failure (in which case nothing was removed).
func (c *Catalog) Delete(name string) (bool, error) {
	sh := c.shardFor(name)
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	if _, ok := sh.ix.Load().Get(name); !ok {
		return false, nil
	}
	m := sh.stage()
	delete(m, name)
	if err := c.publish(sh, m, &Mutation{Op: MutationDelete, Name: name}); err != nil {
		return false, err
	}
	return true, nil
}

// Restore stages mutations read back from durable storage — a snapshot's
// tables, a write-ahead log's records — and publishes them in bulk. See
// Catalog.Restore.
type Restore struct {
	c    *Catalog
	sets []staged // by shard; nil until the shard is first touched
}

// Restore runs fn against a staging area over the catalog. Every sketch
// fn hands it is admitted exactly as the live path admits it, and every
// edit lands in the staged table set of its shard, whose write mutex the
// restore takes on first touch and holds to the end — so edits of one
// table apply in the order fn issues them, and a merge reads the table as
// the edits before it left it. When fn returns nil each touched shard is
// built and published once; when fn fails nothing is published. Either
// way the OnMutate hook never runs: what is restored is already durable.
// The *Restore is valid only inside fn, and fn must not call the
// catalog's own Put/Merge/Delete (the restore may hold their shard).
func (c *Catalog) Restore(fn func(*Restore) error) error {
	c.restoreMu.Lock()
	defer c.restoreMu.Unlock()
	r := &Restore{c: c, sets: make([]staged, len(c.shards))}
	defer func() {
		for i, m := range r.sets {
			if m != nil {
				c.shards[i].writeMu.Unlock()
			}
		}
	}()
	if err := fn(r); err != nil {
		return err
	}
	for i, m := range r.sets {
		if m == nil {
			continue
		}
		if err := c.publish(&c.shards[i], m, nil); err != nil {
			return err
		}
	}
	return nil
}

// set returns the staged table set of name's shard, locking and staging
// the shard on first touch.
func (r *Restore) set(name string) staged {
	i := r.c.shardOf(name)
	if r.sets[i] == nil {
		r.c.shards[i].writeMu.Lock()
		r.sets[i] = r.c.shards[i].stage()
	}
	return r.sets[i]
}

// Put stages ts under its name, replacing any staged table of that name.
func (r *Restore) Put(ts *ipsketch.TableSketch) error {
	if err := r.c.admit(ts); err != nil {
		return err
	}
	r.set(ts.Name)[ts.Name] = ts
	return nil
}

// Merge stages the merge of ts into the staged table of its name (or
// registers it when there is none) and returns the table as that leaves
// it, with whether a merge happened.
func (r *Restore) Merge(ts *ipsketch.TableSketch) (*ipsketch.TableSketch, bool, error) {
	if err := r.c.admit(ts); err != nil {
		return nil, false, err
	}
	return r.set(ts.Name).merge(ts)
}

// Delete drops the staged table of that name, reporting whether there
// was one.
func (r *Restore) Delete(name string) bool {
	m := r.set(name)
	_, ok := m[name]
	delete(m, name)
	return ok
}

// bareIndex registers the tables of m in name-sorted order, so the index's
// scan-order tiebreak is the catalog's canonical (table, column) order. It
// packs no scan view: this is all the snapshot encoder reads.
func bareIndex(m staged) *ipsketch.SketchIndex {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	ix := ipsketch.NewSketchIndex()
	for _, name := range names {
		if err := ix.Add(m[name]); err != nil {
			// Unreachable: admit lets into a staged set only sketches
			// compatible with the catalog's pin, hence with each other.
			panic(fmt.Sprintf("catalog: indexing %q: %v", name, err))
		}
	}
	return ix
}

// sortedIndex builds the published per-shard index: bareIndex plus the
// columnar scan view, packed here, at copy-on-write publish time, so every
// reader of the published index scans structure-of-arrays for free and no
// search ever pays the pack cost. When lshp is set the banded candidate
// index is built the same way — a build failure (invalid banding
// parameters) fails the publish.
func sortedIndex(m staged, lshp *ipsketch.LSHParams) (*ipsketch.SketchIndex, error) {
	ix := bareIndex(m)
	ix.BuildColumnar()
	if lshp != nil {
		if _, err := ix.BuildLSH(*lshp); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Get returns the sketch registered under name.
func (c *Catalog) Get(name string) (*ipsketch.TableSketch, bool) {
	return c.shardFor(name).ix.Load().Get(name)
}

// Len returns the number of cataloged tables.
func (c *Catalog) Len() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].ix.Load().Len()
	}
	return total
}

// ShardSizes returns the per-shard table counts (for statsz).
func (c *Catalog) ShardSizes() []int {
	out := make([]int, len(c.shards))
	for i := range c.shards {
		out[i] = c.shards[i].ix.Load().Len()
	}
	return out
}

// Tables returns every cataloged table name in sorted order.
func (c *Catalog) Tables() []string {
	var out []string
	for i := range c.shards {
		out = append(out, c.shards[i].ix.Load().Tables()...)
	}
	sort.Strings(out)
	return out
}

// allTables returns one table set over every shard's published index.
func (c *Catalog) allTables() staged {
	merged := staged{}
	for i := range c.shards {
		merged.absorb(c.shards[i].ix.Load())
	}
	return merged
}

// Capture returns the bare name-sorted index over every shard's published
// entries — what a snapshot encodes. It packs no scan view, so it is cheap
// enough to take under a barrier that stalls mutations; the slow encode
// (SaveIndex) can then run outside it.
func (c *Catalog) Capture() *ipsketch.SketchIndex { return bareIndex(c.allTables()) }

// Snapshot returns a single name-sorted SketchIndex over a copy-on-read
// snapshot of the whole catalog. The result is immutable with respect to
// later catalog mutations and ranks searches exactly like the sharded
// Search.
func (c *Catalog) Snapshot() *ipsketch.SketchIndex {
	ix, err := sortedIndex(c.allTables(), c.lsh)
	if err != nil {
		panic(fmt.Sprintf("catalog: building snapshot index: %v", err))
	}
	return ix
}

// Search ranks every cataloged (table, column) against q. It takes every
// shard's snapshot first, so one search observes one state, and runs them
// as ONE library search: one worker pool pulls the shard snapshots, the
// per-worker heaps merge under (score, table, column), and only the
// merged top k are filled in — never per shard. The ranking is bit-exact
// with Snapshot().Search(q) on the same catalog state; the scan counters
// sum over every shard. An lsh-mode query fails with
// ipsketch.ErrNoLSHIndex when the catalog was built without Options.LSH.
func (c *Catalog) Search(q ipsketch.Query) ([]ipsketch.SearchResult, ipsketch.ScanStats, error) {
	if q.LSH && c.lsh == nil {
		return nil, ipsketch.ScanStats{}, ipsketch.ErrNoLSHIndex
	}
	snapStart := time.Now()
	ixs := make([]*ipsketch.SketchIndex, len(c.shards))
	for i := range c.shards {
		ixs[i] = c.shards[i].ix.Load()
	}
	snapNanos := time.Since(snapStart).Nanoseconds()
	res, stats, err := ipsketch.SearchIndexes(ixs, q)
	stats.SnapshotNanos = snapNanos
	return res, stats, err
}

// SearchTopKStats is Search of a full-scan query.
//
// Deprecated: use Search. It stays only until the benchmark harness moves
// onto Search (ROADMAP.md item 4(a)).
func (c *Catalog) SearchTopKStats(query *ipsketch.TableSketch, queryCol string, by ipsketch.RankBy, minJoinSize float64, k int) ([]ipsketch.SearchResult, ipsketch.ScanStats, error) {
	return c.Search(ipsketch.Query{Sketch: query, Column: queryCol, RankBy: by, MinJoinSize: minJoinSize, K: k})
}

// SearchTopKLSHStats is Search of an lsh-mode query.
//
// Deprecated: use Search. It stays only until the benchmark harness moves
// onto Search (ROADMAP.md item 4(a)).
func (c *Catalog) SearchTopKLSHStats(query *ipsketch.TableSketch, queryCol string, by ipsketch.RankBy, minJoinSize float64, k, probes int) ([]ipsketch.SearchResult, ipsketch.ScanStats, error) {
	return c.Search(ipsketch.Query{Sketch: query, Column: queryCol, RankBy: by, MinJoinSize: minJoinSize, K: k, LSH: true, Probes: probes})
}

// LSH returns the banding parameters the catalog maintains its candidate
// indexes with, and whether LSH search is enabled.
func (c *Catalog) LSH() (ipsketch.LSHParams, bool) {
	if c.lsh == nil {
		return ipsketch.LSHParams{}, false
	}
	return *c.lsh, true
}

// Save writes a snapshot of the catalog to path atomically and durably
// (temp file + fsync of both the file and its directory + rename), so a
// crash — or a power loss — mid-save never corrupts or loses the
// previous snapshot.
func (c *Catalog) Save(path string) error { return SaveIndex(c.Capture(), path) }

// SaveIndex writes an already-captured index snapshot to path with the
// same atomicity and durability as Save. The serving layer uses the
// split form to Capture under its snapshot barrier and do the slow
// encode outside it.
func SaveIndex(ix *ipsketch.SketchIndex, path string) error {
	err := fsx.AtomicWrite(path, func(w io.Writer) error {
		return ipsketch.EncodeIndex(w, ix)
	})
	if err != nil {
		return fmt.Errorf("catalog: writing snapshot: %w", err)
	}
	return nil
}

// SnapshotError is the typed failure of loading a snapshot file: the
// file exists but cannot be decoded (truncated, bit-flipped, or not a
// snapshot at all). Boot code matches it with errors.As to decide
// whether WAL-based recovery should be attempted.
type SnapshotError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *SnapshotError) Error() string {
	return fmt.Sprintf("catalog: snapshot %s is unreadable: %v", e.Path, e.Err)
}

// Unwrap exposes the decode failure.
func (e *SnapshotError) Unwrap() error { return e.Err }

// Load reads a snapshot written by Save and restores every table into the
// catalog (replacing same-named tables), publishing each shard once. It
// returns the number of tables loaded; when a table is rejected — every
// loaded sketch is validated against the pin — none is.
// A file that exists but will not decode returns a *SnapshotError.
func (c *Catalog) Load(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("catalog: opening snapshot: %w", err)
	}
	defer f.Close()
	ix, err := ipsketch.DecodeIndex(f)
	if err != nil {
		return 0, &SnapshotError{Path: path, Err: err}
	}
	err = c.Restore(func(r *Restore) error {
		for _, name := range ix.Tables() {
			ts, _ := ix.Get(name)
			if err := r.Put(ts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ix.Len(), nil
}
