package wmh

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// RoundedVector materializes ž = Round(v/‖v‖, L) as a sparse vector with
// ž[j] = sign(v[j])·sqrt(w_j/L), the exact target the tests compare the
// sketch's estimates with; the sketcher works directly on the integer
// weights.
func RoundedVector(v vector.Sparse, l uint64) vector.Sparse {
	idx, weights := Round(v, l)
	vals := make([]float64, len(idx))
	for k := range idx {
		s := 1.0
		if v.At(idx[k]) < 0 {
			s = -1.0
		}
		vals[k] = s * math.Sqrt(float64(weights[k])/float64(l))
	}
	out, err := vector.New(v.Dim(), idx, vals)
	if err != nil {
		panic("wmh: internal error materializing rounded vector: " + err.Error())
	}
	return out
}

func randomSparse(rng *hashing.SplitMix64, n uint64, maxNNZ int, outliers bool) vector.Sparse {
	nnz := 1 + rng.Intn(maxNNZ)
	m := make(map[uint64]float64, nnz)
	for len(m) < nnz {
		v := rng.Norm()
		if outliers && rng.Float64() < 0.1 {
			v = 20 + 10*rng.Float64()
			if rng.Float64() < 0.5 {
				v = -v
			}
		}
		if v == 0 {
			continue
		}
		m[rng.Uint64n(n)] = v
	}
	s, err := vector.FromMap(n, m)
	if err != nil {
		panic(err)
	}
	return s
}

func TestRoundWeightsSumToL(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	for trial := 0; trial < 300; trial++ {
		v := randomSparse(rng, 1000, 80, true)
		for _, l := range []uint64{1, 7, 64, 1024, 1 << 20, 1 << 40} {
			_, weights := Round(v, l)
			var sum uint64
			for _, w := range weights {
				if w == 0 {
					t.Fatalf("L=%d: zero weight emitted", l)
				}
				sum += w
			}
			if sum != l {
				t.Fatalf("L=%d trial=%d: Σw = %d, want exactly L", l, trial, sum)
			}
		}
	}
}

func TestRoundEmptyVector(t *testing.T) {
	idx, weights := Round(vector.MustNew(10, nil, nil), 1024)
	if len(idx) != 0 || len(weights) != 0 {
		t.Fatal("empty vector should round to no blocks")
	}
}

func TestRoundSingleEntryGetsAllMass(t *testing.T) {
	v := vector.MustNew(10, []uint64{3}, []float64{-7.5})
	idx, weights := Round(v, 4096)
	if len(idx) != 1 || idx[0] != 3 || weights[0] != 4096 {
		t.Fatalf("single entry: idx=%v weights=%v", idx, weights)
	}
}

func TestRoundPanicsOnBadL(t *testing.T) {
	v := vector.MustNew(10, []uint64{1}, []float64{1})
	for _, l := range []uint64{0, MaxL + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("L=%d did not panic", l)
				}
			}()
			Round(v, l)
		}()
	}
}

func TestRoundFloorsNonArgmaxEntries(t *testing.T) {
	// Entries 0.6, 0.8 → squares 0.36, 0.64 of norm 1. With L = 10:
	// floor(3.6)=3 for the smaller, argmax absorbs 10−3−6=1 → 7.
	v := vector.MustNew(10, []uint64{1, 2}, []float64{0.6, 0.8})
	idx, weights := Round(v, 10)
	if len(idx) != 2 {
		t.Fatalf("got %d blocks", len(idx))
	}
	if weights[0] != 3 || weights[1] != 7 {
		t.Fatalf("weights = %v, want [3 7]", weights)
	}
}

func TestRoundTinyEntriesVanish(t *testing.T) {
	// One dominant entry plus many entries far below 1/L in squared mass.
	m := map[uint64]float64{0: 100}
	for i := uint64(1); i <= 50; i++ {
		m[i] = 0.001
	}
	v, _ := vector.FromMap(100, m)
	idx, weights := Round(v, 1024)
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("tiny entries survived: idx=%v", idx)
	}
	if weights[0] != 1024 {
		t.Fatalf("dominant weight %d, want 1024", weights[0])
	}
}

func TestRoundArgmaxInsertedWhenAllFloorToZero(t *testing.T) {
	// 10 equal entries, L = 4: every floor(0.4) = 0, so the argmax entry
	// (first maximal one) must be inserted carrying all of L.
	m := map[uint64]float64{}
	for i := uint64(0); i < 10; i++ {
		m[i+5] = 1
	}
	v, _ := vector.FromMap(100, m)
	idx, weights := Round(v, 4)
	if len(idx) != 1 {
		t.Fatalf("expected a single block, got %v", idx)
	}
	if weights[0] != 4 {
		t.Fatalf("weight = %d, want 4", weights[0])
	}
}

func TestRoundIndicesSortedAndWithinSupport(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	for trial := 0; trial < 100; trial++ {
		v := randomSparse(rng, 500, 60, true)
		idx, _ := Round(v, 1<<16)
		for k := range idx {
			if k > 0 && idx[k] <= idx[k-1] {
				t.Fatal("rounded indices not strictly increasing")
			}
			if v.At(idx[k]) == 0 {
				t.Fatalf("rounded index %d not in support", idx[k])
			}
		}
	}
}

func TestRoundedVectorIsUnit(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	for trial := 0; trial < 100; trial++ {
		v := randomSparse(rng, 500, 60, true)
		rv := RoundedVector(v, 1<<20)
		if math.Abs(rv.Norm()-1) > 1e-9 {
			t.Fatalf("rounded vector norm %v", rv.Norm())
		}
	}
}

func TestRoundedVectorPreservesSigns(t *testing.T) {
	v := vector.MustNew(10, []uint64{1, 2, 3}, []float64{-3, 4, -5})
	rv := RoundedVector(v, 1<<16)
	if !(rv.At(1) < 0 && rv.At(2) > 0 && rv.At(3) < 0) {
		t.Fatalf("signs not preserved: %v", rv)
	}
}

func TestRoundedVectorSquaredEntriesAreMultiples(t *testing.T) {
	v := vector.MustNew(10, []uint64{1, 2, 3}, []float64{1, 2, 3})
	const l = 1 << 12
	idx, weights := Round(v, l)
	rv := RoundedVector(v, l)
	for k := range idx {
		want := float64(weights[k]) / float64(l)
		got := rv.At(idx[k])
		if math.Abs(got*got-want) > 1e-12 {
			t.Fatalf("entry %d: ž² = %v, want %v (= w/L)", idx[k], got*got, want)
		}
	}
}

// TestRoundApproximationImproves: the inner product of the rounded unit
// vectors approaches the true normalized inner product as L grows.
func TestRoundApproximationImproves(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	a := randomSparse(rng, 300, 50, true)
	b := randomSparse(rng, 300, 50, true)
	truth := vector.Dot(a, b) / (a.Norm() * b.Norm())
	prevErr := math.Inf(1)
	for _, l := range []uint64{1 << 8, 1 << 14, 1 << 22} {
		got := vector.Dot(RoundedVector(a, l), RoundedVector(b, l))
		err := math.Abs(got - truth)
		if err > prevErr+1e-6 {
			t.Fatalf("L=%d: rounding error %v worse than smaller L (%v)", l, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-4 {
		t.Fatalf("rounding error %v still large at L=2^22", prevErr)
	}
}

func TestDefaultL(t *testing.T) {
	if DefaultL(0) != 1<<12 {
		t.Fatal("DefaultL(0) wrong")
	}
	if DefaultL(10000) != 4096*10000 {
		t.Fatalf("DefaultL(10000) = %d", DefaultL(10000))
	}
	if DefaultL(math.MaxUint64) != MaxL {
		t.Fatal("DefaultL should clamp to MaxL")
	}
	if DefaultL(1) != 1<<12 {
		t.Fatal("DefaultL should clamp up to 2^12")
	}
}
