package ipsketch

import (
	"math"
	"testing"

	"repro/internal/vector"
)

func overlappingBinary(t *testing.T) (Vector, Vector, float64, float64) {
	t.Helper()
	am := map[uint64]float64{}
	bm := map[uint64]float64{}
	for i := uint64(0); i < 600; i++ {
		am[i] = 1
	}
	for i := uint64(400); i < 1000; i++ {
		bm[i] = 1
	}
	a, err := VectorFromMap(100000, am)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VectorFromMap(100000, bm)
	if err != nil {
		t.Fatal(err)
	}
	jaccard := 200.0 / 1000.0
	union := 1000.0
	return a, b, jaccard, union
}

func TestEstimateJaccardSupportMethods(t *testing.T) {
	a, b, want, _ := overlappingBinary(t)
	for _, m := range []Method{MethodMH, MethodKMV} {
		s, err := NewSketcher(Config{Method: m, StorageWords: 1200, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		got, err := EstimateJaccard(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%v: Jaccard estimate %v, want ~%v", m, got, want)
		}
	}
}

func TestEstimateJaccardWeightedMethods(t *testing.T) {
	a, b, _, _ := overlappingBinary(t)
	want := vector.WeightedJaccard(a.Normalize(), b.Normalize())
	for _, m := range []Method{MethodWMH} {
		s, err := NewSketcher(Config{Method: m, StorageWords: 2500, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		got, err := EstimateJaccard(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%v: weighted Jaccard estimate %v, want ~%v", m, got, want)
		}
	}
}

func TestEstimateJaccardUnsupportedAndMismatch(t *testing.T) {
	a, b, _, _ := overlappingBinary(t)
	jl, _ := NewSketcher(Config{Method: MethodJL, StorageWords: 100, Seed: 1})
	sa, _ := jl.Sketch(a)
	sb, _ := jl.Sketch(b)
	if _, err := EstimateJaccard(sa, sb); err == nil {
		t.Fatal("JL Jaccard accepted")
	}
	mh, _ := NewSketcher(Config{Method: MethodMH, StorageWords: 100, Seed: 1})
	sm, _ := mh.Sketch(a)
	if _, err := EstimateJaccard(sa, sm); err == nil {
		t.Fatal("cross-method accepted")
	}
	if _, err := EstimateJaccard(nil, sm); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestEstimateSupportSize(t *testing.T) {
	a, _, _, _ := overlappingBinary(t)
	for _, m := range []Method{MethodMH, MethodKMV} {
		s, _ := NewSketcher(Config{Method: m, StorageWords: 1200, Seed: 7})
		sa, _ := s.Sketch(a)
		got, err := EstimateSupportSize(sa)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(got-600)/600 > 0.15 {
			t.Errorf("%v: support size %v, want ~600", m, got)
		}
	}
	wmhS, _ := NewSketcher(Config{Method: MethodWMH, StorageWords: 100, Seed: 1})
	sw, _ := wmhS.Sketch(a)
	if _, err := EstimateSupportSize(sw); err == nil {
		t.Fatal("WMH support size accepted")
	}
	if _, err := EstimateSupportSize(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestEstimateUnionSize(t *testing.T) {
	a, b, _, wantUnion := overlappingBinary(t)
	for _, m := range []Method{MethodMH, MethodKMV} {
		s, _ := NewSketcher(Config{Method: m, StorageWords: 1200, Seed: 9})
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		got, err := EstimateUnionSize(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(got-wantUnion)/wantUnion > 0.15 {
			t.Errorf("%v: union %v, want ~%v", m, got, wantUnion)
		}
	}
	jl, _ := NewSketcher(Config{Method: MethodJL, StorageWords: 100, Seed: 1})
	sa, _ := jl.Sketch(a)
	sb, _ := jl.Sketch(b)
	if _, err := EstimateUnionSize(sa, sb); err == nil {
		t.Fatal("JL union accepted")
	}
	if _, err := EstimateUnionSize(nil, sb); err == nil {
		t.Fatal("nil accepted")
	}
	mh, _ := NewSketcher(Config{Method: MethodMH, StorageWords: 100, Seed: 1})
	sm, _ := mh.Sketch(a)
	if _, err := EstimateUnionSize(sa, sm); err == nil {
		t.Fatal("cross-method accepted")
	}
}

func TestEstimateJaccardIdenticalVectors(t *testing.T) {
	a, _, _, _ := overlappingBinary(t)
	for _, m := range []Method{MethodMH, MethodWMH} {
		s, _ := NewSketcher(Config{Method: m, StorageWords: 400, Seed: 11})
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(a)
		got, err := EstimateJaccard(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("%v: self Jaccard %v, want exactly 1", m, got)
		}
	}
}
