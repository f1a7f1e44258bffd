package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {90, 180}, {0.1, 1}} {
		got, err := percentile(xs, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v of 1..200 = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{200, 95, true}, {199, 95, false}, {1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false}, {0, 50, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%v of %d samples: err = %v, want ok = %v", tc.p, tc.n, err, tc.ok)
		}
	}
	for _, p := range []float64{0, 100, -1, 101} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

// The reference values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
