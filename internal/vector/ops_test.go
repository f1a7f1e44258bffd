package vector

import (
	"math"
	"testing"

	"repro/internal/hashing"
)

func TestDotKnownValues(t *testing.T) {
	a := MustNew(10, []uint64{0, 2, 5}, []float64{1, 2, 3})
	b := MustNew(10, []uint64{2, 5, 7}, []float64{4, -1, 10})
	// overlap at 2 and 5: 2*4 + 3*(-1) = 5
	if got := Dot(a, b); got != 5 {
		t.Fatalf("Dot = %v, want 5", got)
	}
}

func TestDotDisjointAndEmpty(t *testing.T) {
	a := MustNew(10, []uint64{0, 1}, []float64{1, 2})
	b := MustNew(10, []uint64{8, 9}, []float64{3, 4})
	if Dot(a, b) != 0 {
		t.Fatal("disjoint supports should dot to 0")
	}
	empty := MustNew(10, nil, nil)
	if Dot(a, empty) != 0 || Dot(empty, empty) != 0 {
		t.Fatal("empty vector dot != 0")
	}
}

func TestDotPanicsOnDimensionMismatch(t *testing.T) {
	a := MustNew(10, []uint64{1}, []float64{1})
	b := MustNew(11, []uint64{1}, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	Dot(a, b)
}

func TestDotAgainstDense(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	for trial := 0; trial < 200; trial++ {
		a := randomSparse(rng, 500, 60)
		b := randomSparse(rng, 500, 60)
		da, db := a.Dense(), b.Dense()
		want := 0.0
		for i := range da {
			want += da[i] * db[i]
		}
		if got := Dot(a, b); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: Dot=%v dense=%v", trial, got, want)
		}
	}
}

func TestDotSymmetric(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	for trial := 0; trial < 200; trial++ {
		a := randomSparse(rng, 300, 40)
		b := randomSparse(rng, 300, 40)
		if Dot(a, b) != Dot(b, a) {
			t.Fatalf("Dot not symmetric on trial %d", trial)
		}
	}
}

func TestNorms(t *testing.T) {
	s := MustNew(10, []uint64{1, 2, 3}, []float64{3, -4, 12})
	if got := s.Norm(); math.Abs(got-13) > 1e-12 {
		t.Fatalf("Norm = %v, want 13", got)
	}
	if got := s.SquaredNorm(); math.Abs(got-169) > 1e-12 {
		t.Fatalf("SquaredNorm = %v, want 169", got)
	}
	if got := s.Norm1(); got != 19 {
		t.Fatalf("Norm1 = %v, want 19", got)
	}
	if got := s.NormInf(); got != 12 {
		t.Fatalf("NormInf = %v, want 12", got)
	}
	empty := MustNew(10, nil, nil)
	if empty.Norm() != 0 || empty.Norm1() != 0 || empty.NormInf() != 0 {
		t.Fatal("empty vector norms should be 0")
	}
}

func TestCauchySchwarz(t *testing.T) {
	rng := hashing.NewSplitMix64(17)
	for trial := 0; trial < 500; trial++ {
		a := randomSparse(rng, 400, 50)
		b := randomSparse(rng, 400, 50)
		if math.Abs(Dot(a, b)) > a.Norm()*b.Norm()*(1+1e-12) {
			t.Fatalf("Cauchy–Schwarz violated on trial %d", trial)
		}
	}
}

func TestSupportOps(t *testing.T) {
	a := MustNew(16, []uint64{1, 3, 4, 5, 6, 7, 8, 9, 11}, []float64{6, 2, 6, 1, 4, 2, 2, 8, 3})
	b := MustNew(16, []uint64{2, 4, 5, 8, 10, 11, 12, 15}, []float64{1, 5, 1, 2, 4, 2.5, 6, 6})
	if got := SupportIntersectionSize(a, b); got != 4 {
		t.Fatalf("intersection size %d, want 4", got)
	}
	if got := SupportUnionSize(a, b); got != 13 {
		t.Fatalf("union size %d, want 13", got)
	}
	if got := Jaccard(a, b); math.Abs(got-4.0/13.0) > 1e-12 {
		t.Fatalf("Jaccard %v, want %v", got, 4.0/13.0)
	}
}

func TestInclusionExclusion(t *testing.T) {
	rng := hashing.NewSplitMix64(19)
	for trial := 0; trial < 300; trial++ {
		a := randomSparse(rng, 200, 40)
		b := randomSparse(rng, 200, 40)
		if SupportUnionSize(a, b)+SupportIntersectionSize(a, b) != a.NNZ()+b.NNZ() {
			t.Fatalf("inclusion–exclusion violated on trial %d", trial)
		}
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	empty := MustNew(10, nil, nil)
	if Jaccard(empty, empty) != 0 {
		t.Fatal("Jaccard of empties should be 0")
	}
	a := MustNew(10, []uint64{1, 2}, []float64{1, 1})
	if Jaccard(a, a) != 1 {
		t.Fatal("Jaccard of identical supports should be 1")
	}
	if Jaccard(a, empty) != 0 {
		t.Fatal("Jaccard with empty should be 0")
	}
}

// commonSupport returns the sorted indices where both a and b are
// non-zero, by lookup rather than by merging the two supports.
func commonSupport(a, b Sparse) []uint64 {
	var out []uint64
	a.Range(func(i uint64, _ float64) bool {
		if b.At(i) != 0 {
			out = append(out, i)
		}
		return true
	})
	return out
}

func TestRestrictAndDotIdentity(t *testing.T) {
	// ⟨a, b⟩ = ⟨a_I, b_I⟩ since only intersection entries contribute.
	rng := hashing.NewSplitMix64(29)
	for trial := 0; trial < 300; trial++ {
		a := randomSparse(rng, 300, 50)
		b := randomSparse(rng, 300, 50)
		i := commonSupport(a, b)
		aI, bI := a.Restrict(i), b.Restrict(i)
		if aI.NNZ() != len(i) || bI.NNZ() != len(i) {
			t.Fatalf("restricted sizes wrong: %d,%d vs %d", aI.NNZ(), bI.NNZ(), len(i))
		}
		if math.Abs(Dot(a, b)-Dot(aI, bI)) > 1e-9 {
			t.Fatalf("⟨a,b⟩ ≠ ⟨a_I,b_I⟩ on trial %d", trial)
		}
	}
}

func TestIntersectionNormsMatchRestrict(t *testing.T) {
	rng := hashing.NewSplitMix64(31)
	for trial := 0; trial < 300; trial++ {
		a := randomSparse(rng, 300, 50)
		b := randomSparse(rng, 300, 50)
		i := commonSupport(a, b)
		nA, nB := IntersectionNorms(a, b)
		if math.Abs(nA-a.Restrict(i).Norm()) > 1e-12 ||
			math.Abs(nB-b.Restrict(i).Norm()) > 1e-12 {
			t.Fatalf("IntersectionNorms mismatch on trial %d", trial)
		}
	}
}

// TestBoundOrdering verifies the paper's Table 1 ordering:
// WMHBound ≤ LinearSketchBound always, and both are ≥ |⟨a,b⟩|.
func TestBoundOrdering(t *testing.T) {
	rng := hashing.NewSplitMix64(37)
	for trial := 0; trial < 500; trial++ {
		a := randomSparse(rng, 300, 60)
		b := randomSparse(rng, 300, 60)
		lin := LinearSketchBound(a, b)
		wmh := WMHBound(a, b)
		if wmh > lin*(1+1e-12) {
			t.Fatalf("WMH bound %v exceeds linear bound %v", wmh, lin)
		}
		if math.Abs(Dot(a, b)) > lin*(1+1e-12) {
			t.Fatalf("inner product above linear bound on trial %d", trial)
		}
		// |⟨a,b⟩| = |⟨a_I,b_I⟩| ≤ ‖a_I‖‖b_I‖ ≤ ‖a_I‖‖b‖ ≤ WMH bound.
		if math.Abs(Dot(a, b)) > wmh*(1+1e-12) {
			t.Fatalf("inner product above WMH bound on trial %d", trial)
		}
	}
}

// TestWMHBoundBinaryMatchesMHBound: for binary vectors the Theorem 2 bound
// equals the Theorem 4 / prior-work bound sqrt(max(|A|,|B|)·|A∩B|).
func TestWMHBoundBinaryMatchesMHBound(t *testing.T) {
	rng := hashing.NewSplitMix64(41)
	for trial := 0; trial < 200; trial++ {
		a := randomBinary(rng, 300, 60)
		b := randomBinary(rng, 300, 60)
		wmh := WMHBound(a, b)
		mh := MHBound(a, b)
		if math.Abs(wmh-mh) > 1e-9*math.Max(1, mh) {
			t.Fatalf("binary bounds differ: WMH=%v MH=%v", wmh, mh)
		}
	}
}

func randomBinary(rng *hashing.SplitMix64, n uint64, maxNNZ int) Sparse {
	nnz := rng.Intn(maxNNZ + 1)
	m := make(map[uint64]float64, nnz)
	for len(m) < nnz {
		m[rng.Uint64n(n)] = 1
	}
	s, err := FromMap(n, m)
	if err != nil {
		panic(err)
	}
	return s
}

func TestBoundsOnPaperFigure3Vectors(t *testing.T) {
	// The exact vectors from Figure 3 of the paper (1-indexed there,
	// 0-indexed here).
	xVA := MustNew(16,
		[]uint64{0, 2, 3, 4, 5, 6, 7, 8, 10},
		[]float64{6, 2, 6, 1, 4, 2, 2, 8, 3})
	x1KA := MustNew(16,
		[]uint64{0, 2, 3, 4, 5, 6, 7, 8, 10},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1})
	xVB := MustNew(16,
		[]uint64{1, 3, 4, 7, 9, 10, 11, 14, 15},
		[]float64{1, 5, 1, 2, 4, 2.5, 6, 6, 3.7})
	x1KB := MustNew(16,
		[]uint64{1, 3, 4, 7, 9, 10, 11, 14, 15},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1})

	// Join size = ⟨x_1[K_A], x_1[K_B]⟩ = 4.
	if got := Dot(x1KA, x1KB); got != 4 {
		t.Fatalf("join size = %v, want 4", got)
	}
	// SUM(V_A⋈) = ⟨x_VA, x_1[K_B]⟩ = 6+1+2+3 = 12.
	if got := Dot(xVA, x1KB); got != 12 {
		t.Fatalf("SUM(V_A) = %v, want 12", got)
	}
	// SUM(V_B⋈) = ⟨x_1[K_A], x_VB⟩ = 5+1+2+2.5 = 10.5.
	if got := Dot(x1KA, xVB); got != 10.5 {
		t.Fatalf("SUM(V_B) = %v, want 10.5", got)
	}
	// Post-join inner product ⟨x_VA, x_VB⟩ = 6·5+1·1+2·2+3·2.5 = 42.5.
	if got := Dot(xVA, xVB); got != 42.5 {
		t.Fatalf("post-join inner product = %v, want 42.5", got)
	}
	// Jaccard similarity of key sets: 4 shared / 14 distinct = 2/7 ≈ .29.
	if got := Jaccard(x1KA, x1KB); math.Abs(got-4.0/14.0) > 1e-12 {
		t.Fatalf("key Jaccard = %v, want %v", got, 4.0/14.0)
	}
}
