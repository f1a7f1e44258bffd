package sample

import (
	"math"
	"slices"
	"testing"
)

func TestColsSlotsAndAux(t *testing.T) {
	c := MakeCols[uint64](3, 3)
	c.Append([]uint64{9, 4}, []float64{0.5, -1}, 2)
	c.Append(nil, nil, 0) // an empty sketch
	c.Append([]uint64{7}, []float64{3}, math.Inf(1))
	for i, want := range []struct {
		tags []uint64
		vals []float64
		aux  float64
	}{
		{[]uint64{9, 4}, []float64{0.5, -1}, 2},
		{nil, nil, 0},
		{[]uint64{7}, []float64{3}, math.Inf(1)},
	} {
		tags, vals, aux := c.At(i)
		if !slices.Equal(tags, want.tags) || !slices.Equal(vals, want.vals) || aux != want.aux {
			t.Errorf("slot %d: %v %v %v, want %v %v %v", i, tags, vals, aux, want.tags, want.vals, want.aux)
		}
		// A slot's slices end at the slot, so appending to one cannot
		// overwrite the next.
		if cap(tags) != len(tags) || cap(vals) != len(vals) {
			t.Errorf("slot %d: capacity %d/%d beyond length %d", i, cap(tags), cap(vals), len(tags))
		}
	}
}

func TestMinMergeKeepsAOnTies(t *testing.T) {
	tags, vals := MinMerge(
		[]float64{0.5, 0.2, 0.7, 0.3}, []float64{1, 2, 3, 4},
		[]float64{0.5, 0.1, 0.9, 0.3}, []float64{-1, -2, -3, -4})
	if want := []float64{0.5, 0.1, 0.7, 0.3}; !slices.Equal(tags, want) {
		t.Errorf("tags %v, want %v", tags, want)
	}
	if want := []float64{1, -2, 3, 4}; !slices.Equal(vals, want) {
		t.Errorf("values %v, want %v (ties keep a's)", vals, want)
	}
	utags, uvals := MinMerge([]uint64{3, 8}, []float64{1, 2}, []uint64{3, 5}, []float64{-1, -2})
	if !slices.Equal(utags, []uint64{3, 5}) || !slices.Equal(uvals, []float64{1, -2}) {
		t.Errorf("uint64 tags: %v %v, want [3 5] [1 -2]", utags, uvals)
	}
}

func TestCheck(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name      string
		err       error
		wantError bool
	}{
		{"empty", Check[uint64](nil, nil, true), false},
		{"ascending", Check([]uint64{1, 5, 9}, []float64{1, -2, 3}, true), false},
		{"unsorted, with replacement", Check([]float64{0.9, 0.1}, []float64{1, 2}, false), false},
		{"more tags than values", Check([]uint64{1, 2}, []float64{1}, false), true},
		{"more values than tags", Check([]uint64{1}, []float64{1, 2}, false), true},
		{"NaN value", Check([]uint64{1, 2}, []float64{1, nan}, false), true},
		{"+Inf value", Check([]uint64{1, 2}, []float64{inf, 1}, true), true},
		{"-Inf value", Check([]float64{0.1}, []float64{-inf}, false), true},
		{"NaN tag", Check([]float64{0.1, nan}, []float64{1, 2}, false), true},
		{"+Inf tag", Check([]float64{inf}, []float64{1}, false), true},
		{"repeated tag", Check([]uint64{1, 5, 5}, []float64{1, 2, 3}, true), true},
		{"descending tags", Check([]uint64{5, 1}, []float64{1, 2}, true), true},
	} {
		if (c.err != nil) != c.wantError {
			t.Errorf("%s: error %v, want error %v", c.name, c.err, c.wantError)
		}
	}
}
