package vector

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/hashing"
)

func TestNewValidVector(t *testing.T) {
	s, err := New(10, []uint64{1, 3, 7}, []float64{1.5, -2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 10 || s.NNZ() != 3 {
		t.Fatalf("got dim=%d nnz=%d", s.Dim(), s.NNZ())
	}
	if s.At(3) != -2 || s.At(0) != 0 || s.At(9) != 0 {
		t.Fatal("At returned wrong values")
	}
}

func TestNewDropsZeros(t *testing.T) {
	s, err := New(10, []uint64{1, 3, 7}, []float64{1.5, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Fatalf("zero value not dropped: nnz=%d", s.NNZ())
	}
	if s.At(3) != 0 {
		t.Fatal("dropped entry still readable")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		n    uint64
		idx  []uint64
		val  []float64
		want error
	}{
		{"length mismatch", 10, []uint64{1, 2}, []float64{1}, ErrLengthMismatch},
		{"out of range", 10, []uint64{10}, []float64{1}, ErrIndexOutOfRange},
		{"unsorted", 10, []uint64{3, 1}, []float64{1, 2}, ErrUnsortedIndices},
		{"duplicate", 10, []uint64{3, 3}, []float64{1, 2}, ErrUnsortedIndices},
		{"nan", 10, []uint64{3}, []float64{math.NaN()}, ErrNonFiniteValue},
		{"inf", 10, []uint64{3}, []float64{math.Inf(1)}, ErrNonFiniteValue},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.n, c.idx, c.val)
			if !errors.Is(err, c.want) {
				t.Fatalf("got err %v, want %v", err, c.want)
			}
		})
	}
}

func TestNewCopiesInput(t *testing.T) {
	idx := []uint64{1, 2}
	val := []float64{3, 4}
	s := MustNew(10, idx, val)
	idx[0] = 9
	val[0] = 99
	if s.At(1) != 3 {
		t.Fatal("constructor aliased caller slices")
	}
	if s.At(9) != 0 {
		t.Fatal("constructor aliased caller index slice")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad input did not panic")
		}
	}()
	MustNew(1, []uint64{5}, []float64{1})
}

func TestFromMapMatchesNew(t *testing.T) {
	m := map[uint64]float64{7: 1.5, 2: -3, 999: 0.25}
	s, err := FromMap(1000, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 3 || s.At(7) != 1.5 || s.At(2) != -3 || s.At(999) != 0.25 {
		t.Fatalf("FromMap wrong contents: %v", s)
	}
	// Must be sorted.
	prev := uint64(0)
	first := true
	s.Range(func(i uint64, _ float64) bool {
		if !first && i <= prev {
			t.Fatalf("indices not increasing at %d", i)
		}
		prev, first = i, false
		return true
	})
}

func TestDensePanicsOnHugeDimension(t *testing.T) {
	s := MustNew(1<<40, []uint64{5}, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("Dense on huge dimension did not panic")
		}
	}()
	s.Dense()
}

func TestAtPanicsOutOfRange(t *testing.T) {
	s := MustNew(10, []uint64{1}, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	s.At(10)
}

func TestEntryAndRangeOrder(t *testing.T) {
	s := MustNew(100, []uint64{5, 50, 99}, []float64{1, 2, 3})
	for k := 0; k < s.NNZ(); k++ {
		i, v := s.Entry(k)
		if v != float64(k+1) {
			t.Fatalf("Entry(%d) = (%d,%v)", k, i, v)
		}
	}
	var seen []uint64
	s.Range(func(i uint64, _ float64) bool {
		seen = append(seen, i)
		return len(seen) < 2 // early stop after 2
	})
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 50 {
		t.Fatalf("Range visited %v", seen)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := MustNew(10, []uint64{1, 2}, []float64{3, 4})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.val[0] = 99 // mutate the clone's backing array directly
	if s.At(1) == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(10, []uint64{1, 2}, []float64{3, 4})
	b := MustNew(10, []uint64{1, 2}, []float64{3, 4})
	c := MustNew(10, []uint64{1, 2}, []float64{3, 5})
	d := MustNew(11, []uint64{1, 2}, []float64{3, 4})
	e := MustNew(10, []uint64{1}, []float64{3})
	if !a.Equal(b) {
		t.Fatal("equal vectors reported unequal")
	}
	for _, other := range []Sparse{c, d, e} {
		if a.Equal(other) {
			t.Fatalf("unequal vectors reported equal: %v vs %v", a, other)
		}
	}
}

func TestScale(t *testing.T) {
	s := MustNew(10, []uint64{1, 2}, []float64{3, -4})
	got := s.Scale(2)
	if got.At(1) != 6 || got.At(2) != -8 {
		t.Fatalf("Scale(2) wrong: %v", got)
	}
	zero := s.Scale(0)
	if !zero.IsEmpty() || zero.Dim() != 10 {
		t.Fatalf("Scale(0) should be empty with same dim, got %v", zero)
	}
}

func TestMapDropsZeros(t *testing.T) {
	s := MustNew(10, []uint64{1, 2, 3}, []float64{3, -4, 2})
	sq := s.Map(func(v float64) float64 { return v * v })
	if sq.At(1) != 9 || sq.At(2) != 16 || sq.At(3) != 4 {
		t.Fatalf("Map square wrong: %v", sq)
	}
	dropped := s.Map(func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	})
	if dropped.NNZ() != 2 {
		t.Fatalf("Map did not drop zeros: %v", dropped)
	}
}

func TestStringCompactForLargeVectors(t *testing.T) {
	idx := make([]uint64, 20)
	val := make([]float64, 20)
	for i := range idx {
		idx[i] = uint64(i)
		val[i] = 1
	}
	s := MustNew(100, idx, val)
	if got := s.String(); !strings.Contains(got, "nnz=20") {
		t.Fatalf("large-vector String() = %q", got)
	}
	small := MustNew(10, []uint64{1}, []float64{2.5})
	if got := small.String(); !strings.Contains(got, "1:2.5") {
		t.Fatalf("small-vector String() = %q", got)
	}
}

// randomSparse draws a random sparse vector for property tests.
func randomSparse(rng *hashing.SplitMix64, n uint64, maxNNZ int) Sparse {
	nnz := rng.Intn(maxNNZ + 1)
	m := make(map[uint64]float64, nnz)
	for len(m) < nnz {
		v := rng.Norm() * 10
		if v == 0 {
			continue
		}
		m[rng.Uint64n(n)] = v
	}
	s, err := FromMap(n, m)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNormalizeUnitNorm(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	for trial := 0; trial < 200; trial++ {
		s := randomSparse(rng, 1000, 50)
		u := s.Normalize()
		if s.IsEmpty() {
			if !u.IsEmpty() {
				t.Fatal("empty vector normalized to non-empty")
			}
			continue
		}
		if math.Abs(u.Norm()-1) > 1e-12 {
			t.Fatalf("normalized norm = %v", u.Norm())
		}
	}
}
