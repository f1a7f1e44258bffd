package ipsketch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/tables"
)

// This file is the dataset-search application layer (paper §1.2): sketch
// tables once, then estimate post-join statistics between any pair of
// tables from their sketches alone, without materializing joins.

// Table is a keyed table with float64 value columns. See NewTable.
type Table = tables.Table

// Agg selects how duplicate keys are reduced before one-to-one joins.
type Agg = tables.Agg

// Aggregations re-exported from the tables substrate.
const (
	AggSum   = tables.AggSum
	AggMean  = tables.AggMean
	AggCount = tables.AggCount
	AggMin   = tables.AggMin
	AggMax   = tables.AggMax
	AggFirst = tables.AggFirst
)

// DefaultKeySpace is the default key-domain size (vector dimension) for
// table sketching.
const DefaultKeySpace = tables.DefaultKeySpace

// NewTable builds a table from a key column and named value columns.
func NewTable(name string, keys []uint64, cols map[string][]float64) (*Table, error) {
	return tables.New(name, keys, cols)
}

// KeyFromString maps a string key into the key domain.
func KeyFromString(s string) uint64 { return tables.KeyFromString(s) }

// TableSketcher sketches tables: the key-indicator vector x_1[K] plus, for
// every requested value column V, the vectors x_V and x_{V²}. Those three
// sketches per column are enough to estimate join size, post-join sums,
// means, variances, covariance, and correlation (§1.2 of the paper).
type TableSketcher struct {
	s        *Sketcher
	keySpace uint64
}

// NewTableSketcher wraps a sketcher configuration for table sketching.
// keySpace 0 selects DefaultKeySpace.
func NewTableSketcher(cfg Config, keySpace uint64) (*TableSketcher, error) {
	s, err := NewSketcher(cfg)
	if err != nil {
		return nil, err
	}
	if keySpace == 0 {
		keySpace = DefaultKeySpace
	}
	return &TableSketcher{s: s, keySpace: keySpace}, nil
}

// TableSketch is the sketch bundle for one table.
type TableSketch struct {
	Name     string
	keySpace uint64
	key      *Sketch
	// cols are the sketched column names in ascending order, and val[i]
	// and sqVal[i] the x_V and x_{V²} sketches of column cols[i]. Bundles
	// are immutable after construction, so Columns() returns cols as it
	// is — the search hot loop enumerates candidate columns per query and
	// must not allocate per candidate.
	cols       []string
	val, sqVal []*Sketch
	// run is the columnar run whose build made this bundle, a view over
	// its pack (nil for a bundle that is not a view); see buildColumnarView.
	run *packRun
}

// column returns the position of the named column in Columns().
func (tsk *TableSketch) column(name string) (int, bool) {
	return slices.BinarySearch(tsk.cols, name)
}

// SketchTable sketches the table's key set and the named value columns
// (all columns when none are named). The table must have unique keys;
// aggregate first otherwise.
func (ts *TableSketcher) SketchTable(t *Table, cols ...string) (*TableSketch, error) {
	b, err := ts.s.getBuilder()
	if err != nil {
		return nil, err
	}
	defer ts.s.putBuilder(b)
	return ts.sketchBundle(t, cols, b)
}

// sketchBundle is the one body that builds a bundle: vectorize the table
// once (Table.Vectors), hand the 1+2·|cols| vectors — x_1[K], then x_V
// per column, then x_{V²} per column — to one builder call, and assemble
// the sketches it returns in that order. Every entry point differs only in where the
// builder comes from. The vectors share one key set, which is what lets
// the WMH dart construction fill them from one walk; every sketch is
// identical to Sketcher.Sketch of its own vector.
func (ts *TableSketcher) sketchBundle(t *Table, cols []string, b builder) (*TableSketch, error) {
	if len(cols) == 0 {
		cols = t.ColumnNames()
	}
	// One sketch per distinct column, in the order Columns() reports.
	cols = slices.Compact(slices.Sorted(slices.Values(cols)))
	key, vals, sqs, err := t.Vectors(ts.keySpace, cols)
	if err != nil {
		return nil, err
	}
	ps, err := b.sketchBundle(slices.Concat([]Vector{key}, vals, sqs))
	if err != nil {
		return nil, err
	}
	sks, n := wrap(ts.s.cfg.Method, ps), len(cols)
	return &TableSketch{
		Name:     t.Name(),
		keySpace: ts.keySpace,
		key:      sks[0],
		cols:     cols,
		val:      sks[1 : 1+n : 1+n],
		sqVal:    sks[1+n:],
	}, nil
}

// TableSketchBuilder sketches tables one at a time with one builder's
// reused construction scratch, held for its lifetime instead of drawn from
// the sketcher's pool per call. A builder is single-goroutine; concurrent
// producers run one each.
type TableSketchBuilder struct {
	ts *TableSketcher
	b  builder
}

// NewBuilder returns a fresh table-sketch builder for the sketcher's
// configuration. Its output is identical to SketchTable's.
func (ts *TableSketcher) NewBuilder() (*TableSketchBuilder, error) {
	b, err := ts.s.be.newBuilder(ts.s.cfg, ts.s.size)
	if err != nil {
		return nil, err
	}
	return &TableSketchBuilder{ts: ts, b: b}, nil
}

// SketchTable sketches the table with the builder's reused scratch.
func (tb *TableSketchBuilder) SketchTable(t *Table, cols ...string) (*TableSketch, error) {
	return tb.ts.sketchBundle(t, cols, tb.b)
}

// SketchTableChunked is SketchTable under an older name (DESIGN.md
// §10.2). bench/loadgen is its only caller; deleting the alias waits for a
// change that may edit bench/.
func (ts *TableSketcher) SketchTableChunked(t *Table, cols ...string) (*TableSketch, error) {
	return ts.SketchTable(t, cols...)
}

// Merge combines two table-sketch bundles built from partitions of one
// table under the same configuration: the key sketches and the sketches
// of every shared column merge pairwise (Sketch.Merge semantics — exact
// for disjoint row partitions), and columns present in only one bundle
// are carried over as-is, so column-partitioned producers compose too.
// The receiver's name is kept; neither input is modified. Incompatible
// bundles (key space, method, size, seed, or variant mismatches) fail
// loudly, as does any method without merge support.
func (tsk *TableSketch) Merge(other *TableSketch) (*TableSketch, error) {
	if tsk == nil || other == nil {
		return nil, errors.New("ipsketch: nil table sketch")
	}
	if tsk.keySpace != other.keySpace {
		return nil, fmt.Errorf("ipsketch: key space mismatch %d vs %d", tsk.keySpace, other.keySpace)
	}
	key, err := tsk.key.Merge(other.key)
	if err != nil {
		return nil, fmt.Errorf("ipsketch: merging key sketches: %w", err)
	}
	n := len(tsk.cols) + len(other.cols)
	out := &TableSketch{
		Name:     tsk.Name,
		keySpace: tsk.keySpace,
		key:      key,
		cols:     make([]string, 0, n),
		val:      make([]*Sketch, 0, n),
		sqVal:    make([]*Sketch, 0, n),
	}
	add := func(c string, val, sq *Sketch) {
		out.cols, out.val, out.sqVal = append(out.cols, c), append(out.val, val), append(out.sqVal, sq)
	}
	// Both column lists ascend: walk them together.
	a, b := 0, 0
	for a < len(tsk.cols) || b < len(other.cols) {
		switch {
		case b == len(other.cols) || a < len(tsk.cols) && tsk.cols[a] < other.cols[b]:
			add(tsk.cols[a], tsk.val[a], tsk.sqVal[a])
			a++
		case a == len(tsk.cols) || other.cols[b] < tsk.cols[a]:
			add(other.cols[b], other.val[b], other.sqVal[b])
			b++
		default:
			c := tsk.cols[a]
			val, err := tsk.val[a].Merge(other.val[b])
			if err != nil {
				return nil, fmt.Errorf("ipsketch: merging column %q: %w", c, err)
			}
			sq, err := tsk.sqVal[a].Merge(other.sqVal[b])
			if err != nil {
				return nil, fmt.Errorf("ipsketch: merging column %q squared values: %w", c, err)
			}
			add(c, val, sq)
			a++
			b++
		}
	}
	return out, nil
}

// Columns returns the sketched column names in sorted order (so catalog
// scans and search tie-breaking are deterministic). The returned slice is
// the bundle's cached copy; callers must not modify it.
func (tsk *TableSketch) Columns() []string { return tsk.cols }

// KeySpace returns the key-domain size the bundle was sketched under.
func (tsk *TableSketch) KeySpace() uint64 { return tsk.keySpace }

// CompatibleWith reports why this sketch bundle cannot be compared with
// other — key-space mismatch or incomparable key sketches (method, size,
// seed, or variant) — or nil when EstimateJoinStats would accept the pair.
// All sketches of a bundle come from one sketcher, so checking the key
// sketches is sufficient.
func (tsk *TableSketch) CompatibleWith(other *TableSketch) error {
	if tsk == nil || other == nil {
		return errors.New("ipsketch: nil table sketch")
	}
	if tsk.keySpace != other.keySpace {
		return fmt.Errorf("ipsketch: key space mismatch %d vs %d", tsk.keySpace, other.keySpace)
	}
	return Compatible(tsk.key, other.key)
}

// StorageWords returns the total size of the sketch bundle.
func (tsk *TableSketch) StorageWords() float64 {
	total := tsk.key.StorageWords()
	for _, s := range tsk.val {
		total += s.StorageWords()
	}
	for _, s := range tsk.sqVal {
		total += s.StorageWords()
	}
	return total
}

// JoinStats are sketch-based estimates of the post-join statistics of
// §1.2. Ratio statistics are NaN when the estimated join size is ≤ 0.
type JoinStats struct {
	// Size estimates SIZE(T_A⋈B).
	Size float64
	// SumA and SumB estimate SUM(V_A⋈) and SUM(V_B⋈).
	SumA, SumB float64
	// MeanA and MeanB estimate MEAN(V_A⋈) and MEAN(V_B⋈).
	MeanA, MeanB float64
	// VarA and VarB estimate the post-join population variances.
	VarA, VarB float64
	// InnerProduct estimates ⟨x_VA, x_VB⟩ = Σ_join V_A·V_B.
	InnerProduct float64
	// Covariance estimates the post-join covariance of (V_A, V_B).
	Covariance float64
	// Correlation estimates the post-join Pearson correlation.
	Correlation float64
}

// EstimateJoinStats estimates every §1.2 statistic for columns colA of a
// and colB of b from the sketch bundles alone.
func EstimateJoinStats(a *TableSketch, colA string, b *TableSketch, colB string) (JoinStats, error) {
	if a.keySpace != b.keySpace {
		return JoinStats{}, fmt.Errorf("ipsketch: key space mismatch %d vs %d", a.keySpace, b.keySpace)
	}
	ia, ok := a.column(colA)
	if !ok {
		return JoinStats{}, fmt.Errorf("ipsketch: table %q sketch has no column %q", a.Name, colA)
	}
	ib, ok := b.column(colB)
	if !ok {
		return JoinStats{}, fmt.Errorf("ipsketch: table %q sketch has no column %q", b.Name, colB)
	}
	va, vb, sqA, sqB := a.val[ia], b.val[ib], a.sqVal[ia], b.sqVal[ib]

	size, err := EstimateJoinSize(a.key, b.key)
	if err != nil {
		return JoinStats{}, err
	}
	sumA, err := Estimate(va, b.key)
	if err != nil {
		return JoinStats{}, err
	}
	sumB, err := Estimate(a.key, vb)
	if err != nil {
		return JoinStats{}, err
	}
	sumSqA, err := Estimate(sqA, b.key)
	if err != nil {
		return JoinStats{}, err
	}
	sumSqB, err := Estimate(a.key, sqB)
	if err != nil {
		return JoinStats{}, err
	}
	ip, err := Estimate(va, vb)
	if err != nil {
		return JoinStats{}, err
	}
	return assembleJoinStats(size, sumA, sumB, sumSqA, sumSqB, ip), nil
}

// assembleJoinStats derives the §1.2 ratio statistics from the six raw
// pairwise estimates. It is the single assembly point shared by the
// decoded scorer and the columnar scan kernel, so the two paths are
// bit-identical by construction.
func assembleJoinStats(size, sumA, sumB, sumSqA, sumSqB, ip float64) JoinStats {
	st := JoinStats{Size: size, SumA: sumA, SumB: sumB, InnerProduct: ip}
	if st.Size <= 0 {
		st.MeanA, st.MeanB = math.NaN(), math.NaN()
		st.VarA, st.VarB = math.NaN(), math.NaN()
		st.Covariance, st.Correlation = math.NaN(), math.NaN()
		return st
	}
	n := st.Size
	st.MeanA = st.SumA / n
	st.MeanB = st.SumB / n
	st.VarA = sumSqA/n - st.MeanA*st.MeanA
	st.VarB = sumSqB/n - st.MeanB*st.MeanB
	st.Covariance = st.InnerProduct/n - st.MeanA*st.MeanB
	if st.VarA > 0 && st.VarB > 0 {
		st.Correlation = st.Covariance / math.Sqrt(st.VarA*st.VarB)
		// Estimation noise can push the ratio outside [−1, 1]; clamp so
		// downstream ranking stays sane.
		if st.Correlation > 1 {
			st.Correlation = 1
		} else if st.Correlation < -1 {
			st.Correlation = -1
		}
	} else {
		st.Correlation = math.NaN()
	}
	return st
}

// ExactJoinStats computes the same statistics exactly by materializing the
// join — ground truth for evaluating the estimates.
func ExactJoinStats(a *Table, colA string, b *Table, colB string) (JoinStats, error) {
	j, err := tables.Join(a, b, colA, colB)
	if err != nil {
		return JoinStats{}, err
	}
	if j.Size() == 0 {
		return JoinStats{
			MeanA: math.NaN(), MeanB: math.NaN(),
			VarA: math.NaN(), VarB: math.NaN(),
			Covariance: math.NaN(), Correlation: math.NaN(),
		}, nil
	}
	return JoinStats{
		Size:         float64(j.Size()),
		SumA:         j.SumA(),
		SumB:         j.SumB(),
		MeanA:        j.MeanA(),
		MeanB:        j.MeanB(),
		VarA:         j.VarA(),
		VarB:         j.VarB(),
		InnerProduct: j.InnerProduct(),
		Covariance:   j.Covariance(),
		Correlation:  j.Correlation(),
	}, nil
}

// ErrNoSketchedColumn is a sentinel for callers that probe column presence.
var ErrNoSketchedColumn = errors.New("ipsketch: column not sketched")

// ColumnSketch returns the x_V sketch for a sketched column.
func (tsk *TableSketch) ColumnSketch(col string) (*Sketch, error) {
	i, ok := tsk.column(col)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSketchedColumn, col)
	}
	return tsk.val[i], nil
}

// KeySketch returns the x_1[K] sketch.
func (tsk *TableSketch) KeySketch() *Sketch { return tsk.key }
