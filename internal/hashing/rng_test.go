package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, x, y)
		}
	}
}

func TestSplitMix64SeedsDiffer(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestSplitMix64ZeroValueUsable(t *testing.T) {
	var s SplitMix64
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero-value generator looks constant")
	}
}

func TestSplitMix64BitBalance(t *testing.T) {
	s := NewSplitMix64(7)
	const n = 20000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			ones[b] += int((v >> b) & 1)
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("bit %d set with frequency %.4f, want ~0.5", b, frac)
		}
	}
}

func TestFloat64OpenInterval(t *testing.T) {
	s := NewSplitMix64(9)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if !(v > 0 && v < 1) {
			t.Fatalf("Float64 returned %v outside (0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewSplitMix64(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %.5f, want ~0.5", mean)
	}
}

func TestUint64nBoundsAndUniformity(t *testing.T) {
	s := NewSplitMix64(13)
	const n, buckets = 100000, 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		v := s.Uint64n(buckets)
		if v >= buckets {
			t.Fatalf("Uint64n(%d) returned %d", buckets, v)
		}
		counts[v]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %.4f, want ~0.1", b, frac)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewSplitMix64(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewSplitMix64(1).Intn(n)
		}()
	}
}

func TestNormMoments(t *testing.T) {
	s := NewSplitMix64(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %.5f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %.5f, want ~1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := NewSplitMix64(19)
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	Shuffle(s, xs)
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("shuffle broke permutation property at value %d", x)
		}
		seen[x] = true
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		xs := make([]int, 50)
		for i := range xs {
			xs[i] = i
		}
		Shuffle(NewSplitMix64(23), xs)
		return xs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shuffle not deterministic at index %d", i)
		}
	}
}

func TestMixProperties(t *testing.T) {
	if Mix(1, 2) != Mix(1, 2) {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix ignores argument order")
	}
	if Mix(1) == Mix(1, 0) {
		t.Fatal("Mix ignores argument count")
	}
	// Avalanche: flipping one input bit should flip ~half the output bits.
	base := Mix(0xDEADBEEF, 0x12345678)
	flipped := Mix(0xDEADBEEF, 0x12345679)
	diff := base ^ flipped
	pop := 0
	for i := 0; i < 64; i++ {
		pop += int((diff >> i) & 1)
	}
	if pop < 16 || pop > 48 {
		t.Fatalf("Mix avalanche popcount = %d, want near 32", pop)
	}
}

func TestExtendMatchesMix(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return Mix(a, b, c) == Extend(Extend(Mix(a), b), c) &&
			Mix(a) == Extend(Mix(), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
