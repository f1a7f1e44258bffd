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
// edit it, derive the replacement index and store the pointer, so readers
// never block — queries never wait on sketching or index derivation. A
// reader loads the pointer and works lock-free from there; what it holds
// is a consistent shard state that concurrent ingest can never mutate.
// Every write is a Mutation, defined by one function (apply), and every
// published index is derived by one (publish, through SketchIndex.Derive),
// whether the staged edits came from a live Apply or from a Restore.
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
	"bufio"
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

// MutationOp identifies a catalog mutation kind.
type MutationOp int

// The mutation kinds.
const (
	MutationPut    MutationOp = iota + 1 // replace the named sketch
	MutationMerge                        // fold a partial into the named sketch
	MutationDelete                       // remove the named sketch
)

// Mutation is one catalog write: what Apply and Restore.Apply take and the
// OnMutate hook sees. Sketch must be named Name. For MutationMerge, Sketch
// is the incoming PARTIAL (not the merged result): re-applying the same
// partials in order reconverges exactly, which is what makes the
// write-ahead log a sufficient durability record.
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
	// replacing a shard's copy-on-write state (index derivation + pointer
	// store; the hook in between is not counted) — the write-side latency
	// a reader never sees but every ingest pays. A live mutation publishes
	// once; a Restore once per shard it touched, however many tables it
	// staged.
	PublishObserver Observer
	// LSH, when set, bands every published shard index for lsh-mode
	// Search: the bands live with each run of the columnar view, so a
	// publish bands exactly the runs it packs and shares the others' bands
	// with the index it replaces, and readers never observe a stale
	// candidate set. Invalid parameters fail the first mutation.
	LSH *ipsketch.LSHParams
}

// shard is one stripe: its published index, immutable once stored, and
// the mutex that serializes whoever builds the next one.
type shard struct {
	writeMu sync.Mutex // held across stage + edit + build + hook + store
	ix      atomic.Pointer[ipsketch.SketchIndex]
}

// staged is a shard's table set under edit: the published index, base,
// and the edits applied since, by name (a nil sketch deletes its name).
// Staging copies nothing, so an edit costs the same in a shard of any
// size. Only the holder of the shard's writeMu has one; nothing is
// visible to readers until publish.
type staged struct {
	base  *ipsketch.SketchIndex
	edits map[string]*ipsketch.TableSketch
}

// get returns the staged table of that name.
func (m staged) get(name string) (*ipsketch.TableSketch, bool) {
	if ts, ok := m.edits[name]; ok {
		return ts, ts != nil
	}
	return m.base.Get(name)
}

// stage starts an edit of the shard's published table set (the caller
// holds writeMu).
func (sh *shard) stage() staged {
	return staged{base: sh.ix.Load(), edits: map[string]*ipsketch.TableSketch{}}
}

// apply admits mut's sketch and applies mut to m: the one place a put, a
// merge or a delete is defined, for live mutations and restores alike. It
// returns the table as the edit leaves it (nil after a delete) and whether
// mut.Name was staged before. A failed mutation leaves m as it was.
func (c *Catalog) apply(m staged, mut Mutation) (*ipsketch.TableSketch, bool, error) {
	if mut.Op != MutationDelete {
		if err := c.admit(mut); err != nil {
			return nil, false, err
		}
	}
	prev, existed := m.get(mut.Name)
	ts := mut.Sketch
	switch mut.Op {
	case MutationPut: // ts replaces the staged table
	case MutationMerge:
		if existed {
			merged, err := prev.Merge(ts)
			if err != nil {
				return nil, false, fmt.Errorf("catalog: merging into %q: %w", mut.Name, err)
			}
			ts = merged
		}
	case MutationDelete:
		m.edits[mut.Name] = nil
		return nil, existed, nil
	default:
		return nil, false, fmt.Errorf("catalog: unknown mutation op %d", mut.Op)
	}
	m.edits[mut.Name] = ts
	return ts, existed, nil
}

// publish derives the next index from m (SketchIndex.Derive), runs the
// OnMutate hook for a live mutation (mut non-nil), and makes the index the
// shard's published state — the one place that state is derived. A build
// or hook failure publishes nothing, and a failed build never reaches the
// hook, so the write-ahead log holds only mutations that published. The
// caller holds the shard's writeMu.
func (c *Catalog) publish(sh *shard, m staged, mut *Mutation) error {
	start := time.Now()
	ix, err := m.base.Derive(m.edits, c.lsh)
	if err != nil {
		return err
	}
	took := time.Since(start)
	if mut != nil && c.onMutate != nil {
		if err := c.onMutate(*mut); err != nil {
			return fmt.Errorf("catalog: mutation hook for %q: %w", mut.Name, err)
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
		// Empty shards must answer lsh-mode searches too. Invalid banding
		// parameters are reported by the first mutation instead (New has
		// no error return).
		ix := ipsketch.NewSketchIndex()
		if banded, err := ix.Derive(nil, c.lsh); err == nil {
			ix = banded
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
// restored: a sketch named after the mutation's table, a usable name,
// envelope serializability (so a catalog that accepted a sketch can always
// be saved and restored), and the configuration pin.
func (c *Catalog) admit(mut Mutation) error {
	ts := mut.Sketch
	if ts == nil {
		return errors.New("catalog: nil table sketch")
	}
	if ts.Name != mut.Name {
		return fmt.Errorf("catalog: mutation of table %q carries a sketch of table %q", mut.Name, ts.Name)
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

// Apply applies one mutation: it stages the target shard, applies mut,
// and publishes the result through the OnMutate hook. It returns the table
// as the mutation left it (nil after a delete) and whether mut.Name was
// cataloged before. The stage-apply-publish sequence runs under the
// shard's write mutex, so concurrent mutations of one table serialize and
// never lose updates. A delete of an absent name publishes and logs
// nothing, and a mutation that fails — admission, merge or index build —
// never reaches the hook.
func (c *Catalog) Apply(mut Mutation) (*ipsketch.TableSketch, bool, error) {
	sh := c.shardFor(mut.Name)
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	m := sh.stage()
	out, existed, err := c.apply(m, mut)
	if err != nil || (mut.Op == MutationDelete && !existed) {
		return nil, false, err
	}
	if err := c.publish(sh, m, &mut); err != nil {
		return nil, false, err
	}
	return out, existed, nil
}

// mutation is the put or merge of ts under its own name.
func mutation(op MutationOp, ts *ipsketch.TableSketch) Mutation {
	mut := Mutation{Op: op, Sketch: ts}
	if ts != nil {
		mut.Name = ts.Name
	}
	return mut
}

// Put registers a table sketch, replacing any previous sketch of the same
// name (Apply of a MutationPut).
func (c *Catalog) Put(ts *ipsketch.TableSketch) error {
	_, _, err := c.Apply(mutation(MutationPut, ts))
	return err
}

// Merge folds a partial table sketch into the cataloged sketch of the
// same name, creating the entry when absent, and reports whether a merge
// happened (Apply of a MutationMerge). Concurrent partial pushes for one
// table serialize and never lose updates — the property distributed
// producers rely on when each pushes its partition's sketch independently.
func (c *Catalog) Merge(ts *ipsketch.TableSketch) (bool, error) {
	_, merged, err := c.Apply(mutation(MutationMerge, ts))
	return merged, err
}

// Delete deletes the table, reporting whether it was present and any
// publish failure (in which case nothing was removed).
func (c *Catalog) Delete(name string) (bool, error) {
	_, removed, err := c.Apply(Mutation{Op: MutationDelete, Name: name})
	return removed, err
}

// Restore stages mutations read back from durable storage — a snapshot's
// tables, a write-ahead log's records — and publishes them in bulk. See
// Catalog.Restore.
type Restore struct {
	c    *Catalog
	sets []staged // by shard; the zero value until the shard is first touched
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
// catalog's own Apply (the restore may hold its shard).
func (c *Catalog) Restore(fn func(*Restore) error) error {
	c.restoreMu.Lock()
	defer c.restoreMu.Unlock()
	r := &Restore{c: c, sets: make([]staged, len(c.shards))}
	defer func() {
		for i, m := range r.sets {
			if m.base != nil {
				c.shards[i].writeMu.Unlock()
			}
		}
	}()
	if err := fn(r); err != nil {
		return err
	}
	for i, m := range r.sets {
		if m.base == nil {
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
	if r.sets[i].base == nil {
		r.c.shards[i].writeMu.Lock()
		r.sets[i] = r.c.shards[i].stage()
	}
	return r.sets[i]
}

// Apply stages mut as Catalog.Apply applies it, with the same result:
// the table as the edit leaves it and whether the name was staged before.
func (r *Restore) Apply(mut Mutation) (*ipsketch.TableSketch, bool, error) {
	return r.c.apply(r.set(mut.Name), mut)
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
func (c *Catalog) Tables() []string { return c.Capture().Tables() }

// Capture returns the bare name-sorted index over every shard's published
// entries, one load of each shard's pointer — what a snapshot encodes. It
// packs nothing, so it is cheap enough to take under a barrier that stalls
// mutations; the slow encode (SaveIndex) can then run outside it.
func (c *Catalog) Capture() *ipsketch.SketchIndex {
	ixs := make([]*ipsketch.SketchIndex, len(c.shards))
	var names []string
	for i := range c.shards {
		ixs[i] = c.shards[i].ix.Load()
		names = append(names, ixs[i].Tables()...)
	}
	sort.Strings(names)
	ix := ipsketch.NewSketchIndex()
	for _, name := range names {
		ts, _ := ixs[c.shardOf(name)].Get(name)
		if err := ix.Add(ts); err != nil {
			// Unreachable: every cataloged sketch passed the pin.
			panic(fmt.Sprintf("catalog: capturing %q: %v", name, err))
		}
	}
	return ix
}

// Snapshot returns a single name-sorted SketchIndex over a copy-on-read
// snapshot of the whole catalog, derived from Capture as a publish
// derives a shard's index. The result is immutable with respect to later
// catalog mutations and ranks searches exactly like the sharded Search.
func (c *Catalog) Snapshot() *ipsketch.SketchIndex {
	ix, err := c.Capture().Derive(nil, c.lsh)
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
	ix, err := ipsketch.DecodeIndex(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return 0, &SnapshotError{Path: path, Err: err}
	}
	err = c.Restore(func(r *Restore) error {
		for _, name := range ix.Tables() {
			ts, _ := ix.Get(name)
			if _, _, err := r.Apply(Mutation{Op: MutationPut, Name: name, Sketch: ts}); err != nil {
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
