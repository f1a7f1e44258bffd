// Package sample is the one sample layout of the coordinated sampling
// sketches (internal/minhash, wmh, kmv and psample). Each stores (tag,
// value) pairs, the tag a 64-bit hash or index or WMH's float64 dart
// minimum, plus at most one per-sketch word its estimator reads. Cols
// packs many samples for the index scan and Scan runs a family's per-pair
// scorer over them, MinMerge is the aligned merge of MH and WMH, and Check
// validates every family's decoded pairs (Support the support size KMV
// and PS/TS store beside them); a family keeps only its draw, its merge
// re-filter and its one scorer with its match loop.
package sample

import (
	"fmt"
	"math"
)

// Tag is the type a sample is keyed by.
type Tag interface{ uint64 | float64 }

// Cols is a structure-of-arrays packing of many sketches' samples, so a
// scan streams flat arrays instead of chasing one heap object per
// candidate. Packed sketch t's pairs occupy [off[t], off[t+1]) of tags
// and vals, in its family's stored order, and aux[t] is its family's
// per-sketch word (0 where the family has none). An empty sketch is an
// empty slot. MakeCols makes an empty pack; Append fills it.
type Cols[T Tag] struct {
	off  []int
	tags []T
	vals []float64
	aux  []float64
}

// MakeCols returns an empty pack sized for exactly sketches samples
// holding pairs pairs in total: Appending them never reallocates, and the
// filled pack's arrays end at their last element.
func MakeCols[T Tag](sketches, pairs int) Cols[T] {
	return Cols[T]{
		off:  make([]int, 1, sketches+1),
		tags: make([]T, 0, pairs),
		vals: make([]float64, 0, pairs),
		aux:  make([]float64, 0, sketches),
	}
}

// Append packs one sketch's pairs (len(tags) == len(vals)) and aux word.
func (c *Cols[T]) Append(tags []T, vals []float64, aux float64) {
	c.tags = append(c.tags, tags...)
	c.vals = append(c.vals, vals...)
	c.off = append(c.off, len(c.tags))
	c.aux = append(c.aux, aux)
}

// At returns packed sketch t's pairs, aliasing the pack, and its aux word.
func (c *Cols[T]) At(t int) (tags []T, vals []float64, aux float64) {
	lo, hi := c.off[t], c.off[t+1]
	return c.tags[lo:hi:hi], c.vals[lo:hi:hi], c.aux[t]
}

// Scan scores every query in qs against every packed sketch in [lo, hi)
// of c: out[(t−lo)·stride + offs[qi]] = score(qs[qi], packed t's pairs
// and aux word). score is a family's per-pair scorer, the one its
// pairwise estimator runs on the other sketch's stored sample, so a
// packed estimate is bit-identical to the pairwise one. The call is per
// pair, never per sample: each family's match loop stays inside score.
func Scan[T Tag, Q any](c *Cols[T], qs []Q, lo, hi int, out []float64, stride int, offs []int,
	score func(q Q, tags []T, vals []float64, aux float64) float64) {
	// Candidate-outer: one packed slot stays cache-resident while every
	// query scores it.
	for t := lo; t < hi; t++ {
		tags, vals, aux := c.At(t)
		row := out[(t-lo)*stride:]
		for qi, q := range qs {
			row[offs[qi]] = score(q, tags, vals, aux)
		}
	}
}

// MinMerge is the aligned merge of two equal-length samples drawn with
// replacement: per position the smaller tag and its value win, and a tie
// keeps a's. The constructions replace a running minimum only on a
// strictly smaller tag, so shards merged in order reproduce the direct
// sketch bit for bit.
func MinMerge[T Tag](aTags []T, aVals []float64, bTags []T, bVals []float64) (tags []T, vals []float64) {
	tags = make([]T, len(aTags))
	vals = make([]float64, len(aTags))
	bTags, bVals = bTags[:len(aTags)], bVals[:len(aTags)]
	for i, ta := range aTags {
		if ta <= bTags[i] {
			tags[i], vals[i] = ta, aVals[i]
		} else {
			tags[i], vals[i] = bTags[i], bVals[i]
		}
	}
	return tags, vals
}

// Check validates decoded pairs: one value per tag, finite values, finite
// tags, and, for a sample kept sorted by tag (KMV, PS/TS), strictly
// ascending tags. A non-finite stored value or minimum would turn every
// estimate against the sketch into NaN or ±Inf.
func Check[T Tag](tags []T, vals []float64, ascending bool) error {
	if len(tags) != len(vals) {
		return fmt.Errorf("sample: %d tags but %d values", len(tags), len(vals))
	}
	ft, _ := any(tags).([]float64) // nil for integer tags, which are finite
	for i, v := range vals {
		// x−x is 0 exactly when x is finite: one compare per value.
		if v-v != 0 {
			return fmt.Errorf("sample: non-finite stored value %v at %d", v, i)
		}
		if ft != nil && ft[i]-ft[i] != 0 {
			return fmt.Errorf("sample: non-finite tag %v at %d", ft[i], i)
		}
		if ascending && i > 0 && tags[i] <= tags[i-1] {
			return fmt.Errorf("sample: tags not strictly ascending at %d", i)
		}
	}
	return nil
}

// Support converts a decoded support-size word to an int. A vector of
// dimension dim has at most dim nonzeros, and a word above MaxInt would
// turn negative as an int — a negative size reads as "the sample holds
// the whole support" and makes estimates exact sums of a truncated
// sample — so either is refused.
func Support(n, dim uint64) (int, error) {
	if n > dim || n > math.MaxInt {
		return 0, fmt.Errorf("sample: support size %d exceeds dimension %d", n, dim)
	}
	return int(n), nil
}

// UnionSupport is the recorded support size of a merged sketch: the
// inputs' sizes a and b minus the shared entries the merge observed. Only
// retained entries can be seen to be shared, so this over-counts; capping
// it at the dimension keeps it an upper bound that Support accepts.
func UnionSupport(a, b, shared int, dim uint64) int {
	return int(min(uint64(a)+uint64(b)-uint64(shared), dim, math.MaxInt))
}
