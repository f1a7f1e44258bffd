package ipsketch

import (
	"math"
	"testing"
)

// Robustness tests: extreme but legal inputs must never panic, never
// produce NaN/Inf estimates, and — where an exact answer is forced — stay
// correct. These complement the statistical tests with failure-injection
// style coverage.

// extremeVectors enumerates adversarial inputs.
func extremeVectors(t *testing.T) map[string]Vector {
	t.Helper()
	mk := func(m map[uint64]float64) Vector {
		v, err := VectorFromMap(1<<40, m)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	huge := map[uint64]float64{}
	for i := uint64(0); i < 64; i++ {
		huge[i] = 1e100
	}
	span := map[uint64]float64{}
	for i := uint64(0); i < 32; i++ {
		span[i] = math.Pow(10, float64(i)-16) // 1e-16 .. 1e15
	}
	denormal := map[uint64]float64{
		1: math.SmallestNonzeroFloat64,
		2: -math.SmallestNonzeroFloat64,
		3: 1,
	}
	return map[string]Vector{
		"empty":         mk(nil),
		"single":        mk(map[uint64]float64{1 << 39: -3.5}),
		"huge values":   mk(huge),
		"wide span":     mk(span),
		"denormals":     mk(denormal),
		"negative only": mk(map[uint64]float64{1: -1, 2: -2, 3: -3}),
		"far indices":   mk(map[uint64]float64{0: 1, 1<<40 - 1: 2}),
	}
}

func TestExtremeInputsNoPanicFiniteEstimates(t *testing.T) {
	vecs := extremeVectors(t)
	for _, m := range Methods() {
		budget := 64
		if m == MethodSimHash {
			budget = 3
		}
		s, err := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sketches := map[string]*Sketch{}
		for name, v := range vecs {
			sk, err := s.Sketch(v)
			if err != nil {
				t.Fatalf("%v sketch %q: %v", m, name, err)
			}
			sketches[name] = sk
		}
		for na, sa := range sketches {
			for nb, sb := range sketches {
				est, err := Estimate(sa, sb)
				if err != nil {
					t.Fatalf("%v estimate %q×%q: %v", m, na, nb, err)
				}
				if math.IsNaN(est) || math.IsInf(est, 0) {
					t.Errorf("%v estimate %q×%q = %v", m, na, nb, est)
				}
			}
		}
	}
}

func TestExtremeSelfEstimatesReasonable(t *testing.T) {
	// Self inner products of the sampling sketches should land near ‖v‖²
	// even for adversarial magnitudes (KMV with full retention: exact).
	vecs := extremeVectors(t)
	s, err := NewSketcher(Config{Method: MethodKMV, StorageWords: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range vecs {
		if v.NNZ() > 64 {
			continue // not fully retained
		}
		sk, err := s.Sketch(v)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		est, err := Estimate(sk, sk)
		if err != nil {
			t.Fatal(err)
		}
		want := v.SquaredNorm()
		if math.Abs(est-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%q: self estimate %v, want %v", name, est, want)
		}
	}
}

func TestWMHSingleHeavyAmongTiny(t *testing.T) {
	// One shared heavy coordinate dominating the product, buried in tiny
	// noise below the rounding threshold: the estimate must still capture
	// the heavy term (the tiny entries legitimately round away).
	am := map[uint64]float64{0: 1000}
	bm := map[uint64]float64{0: 1000}
	for i := uint64(1); i < 200; i++ {
		am[i] = 1e-9
		bm[1000+i] = 1e-9
	}
	a, _ := VectorFromMap(10000, am)
	b, _ := VectorFromMap(10000, bm)
	// The only estimation noise left is the Flajolet–Martin union term
	// (~1/√m relative), so give it enough samples for a 10% gate.
	s, err := NewSketcher(Config{Method: MethodWMH, StorageWords: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := s.Sketch(a)
	sb, _ := s.Sketch(b)
	est, err := Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	truth := Dot(a, b) // 1e6 + negligible
	if math.Abs(est-truth)/truth > 0.10 {
		t.Fatalf("heavy-entry estimate %v, want ~%v", est, truth)
	}
}

func TestOppositeVectorsNegativeEstimate(t *testing.T) {
	m := map[uint64]float64{}
	for i := uint64(0); i < 100; i++ {
		m[i] = float64(i%7) + 1
	}
	v, _ := VectorFromMap(1000, m)
	neg := v.Scale(-1)
	truth := Dot(v, neg) // −‖v‖²
	for _, method := range []Method{MethodWMH, MethodMH, MethodKMV, MethodJL} {
		s, err := NewSketcher(Config{Method: method, StorageWords: 600, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(v)
		sb, _ := s.Sketch(neg)
		est, err := Estimate(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if est >= 0 {
			t.Errorf("%v: estimate %v for anti-parallel vectors, want negative", method, est)
		}
		if math.Abs(est-truth)/math.Abs(truth) > 0.3 {
			t.Errorf("%v: estimate %v, want ~%v", method, est, truth)
		}
	}
}

// TestEstimateWithBoundPublicAPI: the WMH bound surfaces through the root
// API and actually covers the realized error most of the time.
func TestEstimateWithBoundPublicAPI(t *testing.T) {
	a, b := paperPair(t, 0.1, 43)
	truth := Dot(a, b)
	s, err := NewSketcher(Config{Method: MethodWMH, StorageWords: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := s.Sketch(a)
	sb, _ := s.Sketch(b)
	est, scale, err := EstimateWithBound(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 {
		t.Fatalf("error scale %v not positive for overlapping pair", scale)
	}
	if math.Abs(est-truth) > 8*scale {
		t.Fatalf("error %v exceeds 8× the estimated scale %v", math.Abs(est-truth), scale)
	}
	// Non-WMH methods are rejected.
	jl, _ := NewSketcher(Config{Method: MethodJL, StorageWords: 100, Seed: 1})
	ja, _ := jl.Sketch(a)
	jb, _ := jl.Sketch(b)
	if _, _, err := EstimateWithBound(ja, jb); err == nil {
		t.Fatal("JL accepted by EstimateWithBound")
	}
	if _, _, err := EstimateWithBound(nil, sb); err == nil {
		t.Fatal("nil accepted")
	}
}

// TestEstimateSymmetry: Estimate(a,b) == Estimate(b,a) for every method —
// nothing in any estimator may depend on argument order.
func TestEstimateSymmetry(t *testing.T) {
	a, b := paperPair(t, 0.2, 31)
	for _, m := range Methods() {
		budget := 200
		if m == MethodSimHash {
			budget = 5
		}
		s, err := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		ab, err := Estimate(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Estimate(sb, sa)
		if err != nil {
			t.Fatal(err)
		}
		if ab != ba {
			t.Errorf("%v: Estimate not symmetric: %v vs %v", m, ab, ba)
		}
	}
}

// TestCrossMachineDeterminism simulates two machines sketching
// independently: serialize on "machine A", decode on "machine B", compare
// against a fresh local sketch — must be bitwise identical.
func TestCrossMachineDeterminism(t *testing.T) {
	a, _ := paperPair(t, 0.1, 37)
	for _, m := range Methods() {
		budget := 100
		if m == MethodSimHash {
			budget = 3
		}
		cfg := Config{Method: m, StorageWords: budget, Seed: 6}
		s1, _ := NewSketcher(cfg)
		s2, _ := NewSketcher(cfg)
		sk1, err := s1.Sketch(a)
		if err != nil {
			t.Fatal(err)
		}
		sk2, err := s2.Sketch(a)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := sk1.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := sk2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(d1) != len(d2) {
			t.Fatalf("%v: encodings differ in length", m)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("%v: encodings differ at byte %d", m, i)
			}
		}
	}
}
