package datagen

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

func newTestRNG() *hashing.SplitMix64 { return hashing.NewSplitMix64(1) }

func TestValidate(t *testing.T) {
	good := PaperPairParams(0.1, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper params rejected: %v", err)
	}
	bad := []PairParams{
		{N: 0, NNZ: 10},
		{N: 100, NNZ: 0},
		{N: 100, NNZ: 10, Overlap: -0.1},
		{N: 100, NNZ: 10, Overlap: 1.1},
		{N: 100, NNZ: 10, OutlierFrac: 2},
		{N: 100, NNZ: 10, OutlierLo: 5, OutlierHi: 1},
		{N: 10, NNZ: 10, Overlap: 0}, // needs 20 distinct positions
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
		if _, _, err := SyntheticPair(p); err == nil {
			t.Errorf("SyntheticPair accepted bad params %d", i)
		}
	}
}

func TestPaperConfiguration(t *testing.T) {
	p := PaperPairParams(0.05, 42)
	if p.N != 10000 || p.NNZ != 2000 || p.OutlierFrac != 0.10 ||
		p.OutlierLo != 20 || p.OutlierHi != 30 {
		t.Fatalf("paper params wrong: %+v", p)
	}
}

func TestExactOverlapAndSupportSizes(t *testing.T) {
	for _, overlap := range []float64{0.01, 0.05, 0.10, 0.50, 1.0} {
		p := PaperPairParams(overlap, 7)
		a, b, err := SyntheticPair(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.NNZ() != 2000 || b.NNZ() != 2000 {
			t.Fatalf("overlap %v: nnz %d/%d, want 2000", overlap, a.NNZ(), b.NNZ())
		}
		wantShared := int(overlap * 2000)
		if got := vector.SupportIntersectionSize(a, b); got != wantShared {
			t.Fatalf("overlap %v: shared %d, want %d", overlap, got, wantShared)
		}
	}
}

func TestDeterministicAndSeedSensitive(t *testing.T) {
	p := PaperPairParams(0.1, 9)
	a1, b1, _ := SyntheticPair(p)
	a2, b2, _ := SyntheticPair(p)
	if !a1.Equal(a2) || !b1.Equal(b2) {
		t.Fatal("same seed produced different pairs")
	}
	p2 := p
	p2.Seed = 10
	a3, _, _ := SyntheticPair(p2)
	if a1.Equal(a3) {
		t.Fatal("different seeds produced identical vectors")
	}
}

func TestValueDistribution(t *testing.T) {
	p := PaperPairParams(0.1, 11)
	a, _, _ := SyntheticPair(p)
	inliers, outliers := 0, 0
	a.Range(func(_ uint64, v float64) bool {
		switch {
		case v >= -1 && v <= 1 && v != 0:
			inliers++
		case v >= 20 && v <= 30:
			outliers++
		default:
			t.Fatalf("value %v outside both ranges", v)
		}
		return true
	})
	frac := float64(outliers) / float64(inliers+outliers)
	if math.Abs(frac-0.10) > 0.025 {
		t.Fatalf("outlier fraction %.3f, want ~0.10", frac)
	}
}

func TestNegativeOutliers(t *testing.T) {
	p := PaperPairParams(0.1, 13)
	p.NegativeOutliers = true
	a, _, _ := SyntheticPair(p)
	neg := 0
	a.Range(func(_ uint64, v float64) bool {
		if v <= -20 {
			neg++
		}
		return true
	})
	if neg == 0 {
		t.Fatal("NegativeOutliers produced no negative outliers")
	}
}

func TestNoOutliersWhenFracZero(t *testing.T) {
	p := PaperPairParams(0.1, 15)
	p.OutlierFrac = 0
	a, b, _ := SyntheticPair(p)
	for _, v := range []vector.Sparse{a, b} {
		v.Range(func(_ uint64, x float64) bool {
			if x < -1 || x > 1 {
				t.Fatalf("outlier %v with OutlierFrac=0", x)
			}
			return true
		})
	}
}

func TestLargeDomainRejectionPath(t *testing.T) {
	p := PairParams{
		N: 1 << 40, NNZ: 500, Overlap: 0.2,
		OutlierFrac: 0.1, OutlierLo: 20, OutlierHi: 30, Seed: 19,
	}
	a, b, err := SyntheticPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 500 || b.NNZ() != 500 {
		t.Fatal("large-domain pair wrong support size")
	}
	if got := vector.SupportIntersectionSize(a, b); got != 100 {
		t.Fatalf("large-domain overlap %d, want 100", got)
	}
}

func TestSampleDistinctPanicsWhenImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sampling more than domain did not panic")
		}
	}()
	p := PairParams{N: 5, NNZ: 10, Overlap: 1, Seed: 1}
	// Validate passes (needed = 10 ≤ ... no: needed = 2*10-10 = 10 > 5 →
	// Validate fails first; call sampleDistinct directly instead.
	_ = p
	rng := newTestRNG()
	sampleDistinct(rng, 5, 10)
}
