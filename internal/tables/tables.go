// Package tables is the dataset-search substrate from Section 1.2 of the
// paper: keyed tables, one-to-one joins, the post-join statistics analysts
// care about (join size, sums, means, variances, covariance, correlation),
// and the vector representations x_1[K] and x_V that reduce all of those
// statistics to inner products so they can be estimated from sketches
// without materializing the join.
//
// Conventions:
//
//   - A key is a uint64; string keys are mapped through KeyFromString.
//   - The vector dimension is the key domain size (the paper: "set n large
//     enough to cover the whole domain of the keys, e.g. n = 2^32 or 2^64");
//     DefaultKeySpace is 2^63.
//   - One-to-one joins require unique keys; many-to-many inputs are reduced
//     with Aggregate first (paper footnote 3).
package tables

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/hashing"
	"repro/internal/stats"
	"repro/internal/vector"
)

// DefaultKeySpace is the default vector dimension for key domains.
const DefaultKeySpace uint64 = 1 << 63

// KeyFromString maps an arbitrary string key into the key domain with a
// 64-bit mixing hash (collision probability ~2^-63 per pair under
// DefaultKeySpace).
func KeyFromString(s string) uint64 {
	h := uint64(0x9AE16A3B2F90404F)
	for i := 0; i < len(s); i++ {
		h = hashing.Mix(h, uint64(s[i]))
	}
	return h % DefaultKeySpace
}

// Table is a named table with one key column and any number of float64
// value columns, all parallel slices.
type Table struct {
	name     string
	keys     []uint64
	colNames []string
	cols     map[string][]float64
}

// New builds a table. Every column must have the same length as keys.
// Duplicate keys are allowed at construction; one-to-one operations
// (Join, vectorization) reject them until Aggregate is applied.
func New(name string, keys []uint64, cols map[string][]float64) (*Table, error) {
	t := &Table{
		name: name,
		keys: append([]uint64(nil), keys...),
		cols: make(map[string][]float64, len(cols)),
	}
	for c := range cols {
		t.colNames = append(t.colNames, c)
	}
	sort.Strings(t.colNames)
	for _, c := range t.colNames {
		if len(cols[c]) != len(keys) {
			return nil, fmt.Errorf("tables: column %q has %d rows, key column has %d", c, len(cols[c]), len(keys))
		}
		for _, v := range cols[c] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("tables: column %q contains a non-finite value", c)
			}
		}
		t.cols[c] = append([]float64(nil), cols[c]...)
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(name string, keys []uint64, cols map[string][]float64) *Table {
	t, err := New(name, keys, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.keys) }

// Keys returns the key column (caller must not modify).
func (t *Table) Keys() []uint64 { return t.keys }

// ColumnNames returns the value column names in sorted order.
func (t *Table) ColumnNames() []string { return t.colNames }

// Column returns a value column (caller must not modify). The second
// return reports whether the column exists.
func (t *Table) Column(name string) ([]float64, bool) {
	c, ok := t.cols[name]
	return c, ok
}

// HasDuplicateKeys reports whether any key appears more than once.
func (t *Table) HasDuplicateKeys() bool {
	seen := make(map[uint64]struct{}, len(t.keys))
	for _, k := range t.keys {
		if _, dup := seen[k]; dup {
			return true
		}
		seen[k] = struct{}{}
	}
	return false
}

// Agg selects the aggregation function used to reduce duplicate keys.
type Agg int

// Aggregation functions (paper footnote 3: "a typical approach is to use a
// data aggregation function to reduce to the one-to-one setting").
const (
	AggSum Agg = iota
	AggMean
	AggCount
	AggMin
	AggMax
	AggFirst
)

// String names the aggregation.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMean:
		return "mean"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggFirst:
		return "first"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// MarshalText returns the aggregation's name, so an Agg is a text flag.
func (a Agg) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses an aggregation name as String prints it, ignoring
// case. It is the one parser of aggregation names, for flags and the wire.
func (a *Agg) UnmarshalText(text []byte) error {
	for c := AggSum; c <= AggFirst; c++ {
		if strings.EqualFold(c.String(), string(text)) {
			*a = c
			return nil
		}
	}
	return fmt.Errorf("tables: unknown aggregation %q (want sum, mean, count, min, max or first)", text)
}

// Aggregate groups rows by key and reduces every value column with the
// given function, producing a table with unique keys sorted ascending.
func (t *Table) Aggregate(agg Agg) (*Table, error) {
	type acc struct {
		sum, min, max, first float64
		n                    int
	}
	groups := make(map[uint64][]acc) // key → per-column accumulator
	order := make([]uint64, 0, len(t.keys))
	for row, k := range t.keys {
		g, ok := groups[k]
		if !ok {
			g = make([]acc, len(t.colNames))
			order = append(order, k)
		}
		for ci, c := range t.colNames {
			v := t.cols[c][row]
			a := &g[ci]
			if a.n == 0 {
				a.min, a.max, a.first = v, v, v
			} else {
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
			a.sum += v
			a.n++
		}
		groups[k] = g
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	keys := make([]uint64, len(order))
	cols := make(map[string][]float64, len(t.colNames))
	for _, c := range t.colNames {
		cols[c] = make([]float64, len(order))
	}
	for i, k := range order {
		keys[i] = k
		for ci, c := range t.colNames {
			a := groups[k][ci]
			var v float64
			switch agg {
			case AggSum:
				v = a.sum
			case AggMean:
				v = a.sum / float64(a.n)
			case AggCount:
				v = float64(a.n)
			case AggMin:
				v = a.min
			case AggMax:
				v = a.max
			case AggFirst:
				v = a.first
			default:
				return nil, fmt.Errorf("tables: unknown aggregation %v", agg)
			}
			cols[c][i] = v
		}
	}
	return New(t.name+"#"+agg.String(), keys, cols)
}

// ErrDuplicateKeys is returned by one-to-one operations on tables with
// repeated keys.
var ErrDuplicateKeys = errors.New("tables: table has duplicate keys (aggregate first)")

// JoinResult is the materialization of a one-to-one join T_A ⋈ T_B
// restricted to one value column from each side.
type JoinResult struct {
	Keys []uint64
	VA   []float64
	VB   []float64
}

// Join materializes the one-to-one join of a and b on their keys, keeping
// value columns colA (from a) and colB (from b). Both tables must have
// unique keys.
func Join(a, b *Table, colA, colB string) (*JoinResult, error) {
	va, ok := a.Column(colA)
	if !ok {
		return nil, fmt.Errorf("tables: table %q has no column %q", a.name, colA)
	}
	vb, ok := b.Column(colB)
	if !ok {
		return nil, fmt.Errorf("tables: table %q has no column %q", b.name, colB)
	}
	if a.HasDuplicateKeys() || b.HasDuplicateKeys() {
		return nil, ErrDuplicateKeys
	}
	bIndex := make(map[uint64]int, len(b.keys))
	for i, k := range b.keys {
		bIndex[k] = i
	}
	res := &JoinResult{}
	for i, k := range a.keys {
		if j, ok := bIndex[k]; ok {
			res.Keys = append(res.Keys, k)
			res.VA = append(res.VA, va[i])
			res.VB = append(res.VB, vb[j])
		}
	}
	return res, nil
}

// Size returns SIZE(T_A⋈B), the number of joined rows.
func (r *JoinResult) Size() int { return len(r.Keys) }

// SumA returns SUM(V_A⋈).
func (r *JoinResult) SumA() float64 { return sum(r.VA) }

// SumB returns SUM(V_B⋈).
func (r *JoinResult) SumB() float64 { return sum(r.VB) }

// MeanA returns MEAN(V_A⋈) (NaN for an empty join).
func (r *JoinResult) MeanA() float64 { return stats.Mean(r.VA) }

// MeanB returns MEAN(V_B⋈) (NaN for an empty join).
func (r *JoinResult) MeanB() float64 { return stats.Mean(r.VB) }

// VarA returns the population variance of V_A⋈ (NaN for an empty join).
func (r *JoinResult) VarA() float64 { return stats.Variance(r.VA) }

// VarB returns the population variance of V_B⋈ (NaN for an empty join).
func (r *JoinResult) VarB() float64 { return stats.Variance(r.VB) }

// InnerProduct returns ⟨x_VA, x_VB⟩ restricted to the join, the post-join
// inner product of §1.2.
func (r *JoinResult) InnerProduct() float64 {
	s := 0.0
	for i := range r.VA {
		s += r.VA[i] * r.VB[i]
	}
	return s
}

// Covariance returns the population covariance of (V_A⋈, V_B⋈).
func (r *JoinResult) Covariance() float64 { return stats.Covariance(r.VA, r.VB) }

// Correlation returns the Pearson correlation of (V_A⋈, V_B⋈) — the
// join-correlation statistic of Santos et al. that motivates §1.2.
func (r *JoinResult) Correlation() float64 { return stats.Correlation(r.VA, r.VB) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Vectors returns the §1.2 vector representations of t over the key domain
// in one pass: the key indicator x_1[K] (Figure 3 of the paper) and, for
// each named column, x_V — the column value at each key index — and its
// element-wise square x_{V²}, which the paper sketches "to open up the
// possibility of estimating other quantities like post-join variance".
// The keys are sorted once and every vector is cut from that one index
// slice. Zero values vanish from the sparse representations — exactly as
// in the paper, where a zero entry is indistinguishable from a missing
// key — so a zero drops out of x_V and an underflowed square out of
// x_{V²}, while the indicator keeps every key. Fails on an unknown
// column, on duplicate keys (ErrDuplicateKeys), on a key outside
// keySpace, and on a column whose Σv² or Σv⁴ overflows.
func (t *Table) Vectors(keySpace uint64, cols []string) (key vector.Sparse, vals, sqs []vector.Sparse, err error) {
	data := make([][]float64, len(cols))
	for i, c := range cols {
		col, ok := t.Column(c)
		if !ok {
			return key, nil, nil, fmt.Errorf("tables: no column %q", c)
		}
		data[i] = col
	}
	order := make([]keyRow, len(t.keys))
	for row, k := range t.keys {
		order[row] = keyRow{k, row}
	}
	sortKeyRows(order)
	idx := make([]uint64, len(order))
	buf := make([]float64, len(order))
	for i, kr := range order {
		if i > 0 && kr.key == idx[i-1] {
			return key, nil, nil, ErrDuplicateKeys
		}
		idx[i], buf[i] = kr.key, 1
	}
	if n := len(idx); n > 0 && idx[n-1] >= keySpace {
		return key, nil, nil, fmt.Errorf("tables: key %d outside key space %d", idx[n-1], keySpace)
	}
	if key, err = vector.New(keySpace, idx, buf); err != nil {
		return key, nil, nil, err
	}
	vals = make([]vector.Sparse, len(cols))
	sqs = make([]vector.Sparse, len(cols))
	for c, col := range data {
		// ‖x_V‖² = Σv² and ‖x_{V²}‖² = Σv⁴ feed every estimator's norms; a
		// column whose squares overflow would sketch to infinite
		// statistics, so it is rejected here rather than estimated.
		var sum2, sum4 float64
		for i, kr := range order {
			v := col[kr.row]
			buf[i] = v
			v2 := v * v
			sum2 += v2
			sum4 += v2 * v2
		}
		if math.IsInf(sum2, 0) || math.IsInf(sum4, 0) {
			return key, nil, nil, fmt.Errorf("tables: column %q: values too large, their squared norms overflow", cols[c])
		}
		if vals[c], err = vector.New(keySpace, idx, buf); err != nil {
			return key, nil, nil, err
		}
		sqs[c] = vals[c].Map(func(x float64) float64 { return x * x })
	}
	return key, vals, sqs, nil
}

// keyRow is one row of a table in key order.
type keyRow struct {
	key uint64
	row int
}

// sortKeyRows sorts order by key with an LSD radix sort over the key's
// bytes, skipping every byte all keys share (the high bytes of small
// integer keys). Rows with equal keys may land in a different order than a
// comparison sort puts them, but Vectors rejects equal keys, so the vectors
// it builds are the same either way.
func sortKeyRows(order []keyRow) {
	if len(order) < 2 {
		return
	}
	var counts [8][256]int
	for _, kr := range order {
		for b := range counts {
			counts[b][byte(kr.key>>(8*b))]++
		}
	}
	first := order[0].key
	src, dst := order, make([]keyRow, len(order))
	for b := range counts {
		c := &counts[b]
		if c[byte(first>>(8*b))] == len(order) {
			continue // every key has this byte
		}
		at := 0
		for d, n := range c {
			c[d], at = at, at+n
		}
		for _, kr := range src {
			d := byte(kr.key >> (8 * b))
			dst[c[d]] = kr
			c[d]++
		}
		src, dst = dst, src
	}
	copy(order, src)
}

// KeyIndicator returns x_1[K] alone; see Vectors.
func (t *Table) KeyIndicator(keySpace uint64) (vector.Sparse, error) {
	key, _, _, err := t.Vectors(keySpace, nil)
	return key, err
}

// ValueVector returns x_V for the named column alone; see Vectors.
func (t *Table) ValueVector(keySpace uint64, col string) (vector.Sparse, error) {
	_, vals, _, err := t.Vectors(keySpace, []string{col})
	if err != nil {
		return vector.Sparse{}, err
	}
	return vals[0], nil
}

// SquaredValueVector returns x_{V²} for the named column alone; see
// Vectors.
func (t *Table) SquaredValueVector(keySpace uint64, col string) (vector.Sparse, error) {
	_, _, sqs, err := t.Vectors(keySpace, []string{col})
	if err != nil {
		return vector.Sparse{}, err
	}
	return sqs[0], nil
}
