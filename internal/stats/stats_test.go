package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMomentsKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var m Moments
	m.AddAll(xs)
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if !almost(m.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m.Mean())
	}
	if !almost(m.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", m.Variance())
	}
	if !almost(m.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", m.StdDev())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", m.Min(), m.Max())
	}
}

func TestMomentsMatchDirectFormulas(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Norm()*5 + 2
		}
		var m Moments
		m.AddAll(xs)

		// Direct two-pass computation.
		mean := Mean(xs)
		var m2, m3, m4 float64
		for _, x := range xs {
			d := x - mean
			m2 += d * d
			m3 += d * d * d
			m4 += d * d * d * d
		}
		nf := float64(n)
		wantVar := m2 / nf
		wantSkew := (m3 / nf) / math.Pow(m2/nf, 1.5)
		wantKurt := nf * m4 / (m2 * m2)

		if !almost(m.Variance(), wantVar, 1e-9*math.Max(1, wantVar)) {
			t.Fatalf("variance: streaming %v vs direct %v", m.Variance(), wantVar)
		}
		if !almost(m.Skewness(), wantSkew, 1e-6) {
			t.Fatalf("skewness: streaming %v vs direct %v", m.Skewness(), wantSkew)
		}
		if !almost(m.Kurtosis(), wantKurt, 1e-6*math.Max(1, wantKurt)) {
			t.Fatalf("kurtosis: streaming %v vs direct %v", m.Kurtosis(), wantKurt)
		}
	}
}

func TestMomentsEmptyAndConstant(t *testing.T) {
	var m Moments
	if m.Variance() != 0 || m.Skewness() != 0 || m.Kurtosis() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	if !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Fatal("empty accumulator Min/Max should be NaN")
	}
	for i := 0; i < 10; i++ {
		m.Add(7)
	}
	if m.Mean() != 7 || m.Variance() != 0 {
		t.Fatalf("constant stream: mean=%v var=%v", m.Mean(), m.Variance())
	}
	if m.Kurtosis() != 0 {
		t.Fatal("zero-variance kurtosis should report 0")
	}
}

func TestKurtosisDetectsOutliers(t *testing.T) {
	// Kurtosis of a normal sample ≈ 3; adding large outliers raises it.
	rng := hashing.NewSplitMix64(5)
	base := make([]float64, 5000)
	for i := range base {
		base[i] = rng.Norm()
	}
	k0 := Kurtosis(base)
	if math.Abs(k0-3) > 0.5 {
		t.Fatalf("normal kurtosis %v, want ~3", k0)
	}
	spiked := append(append([]float64(nil), base...), 25, -30, 28, 27, -26)
	if k1 := Kurtosis(spiked); k1 < 2*k0 {
		t.Fatalf("outliers did not raise kurtosis: %v -> %v", k0, k1)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	var m Moments
	m.AddAll(xs)
	if !almost(m.SampleVariance(), 5.0/3.0, 1e-12) {
		t.Fatalf("SampleVariance = %v, want %v", m.SampleVariance(), 5.0/3.0)
	}
	var single Moments
	single.Add(1)
	if single.SampleVariance() != 0 {
		t.Fatal("n=1 sample variance should be 0")
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty helpers should return NaN")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if !almost(Variance([]float64{1, 2, 3}), 2.0/3.0, 1e-12) {
		t.Fatal("Variance wrong")
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3}
	if got := Quantile(xs, 0.5); got != 5 { // (3+7)/2 after sorting 1,2,3,7,8,9
		t.Fatalf("median = %v, want 5", got)
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 9 {
		t.Fatal("extreme quantiles wrong")
	}
	if xs[0] != 9 {
		t.Fatal("Quantile modified its input")
	}
	if Quantile([]float64{42}, 0.5) != 42 {
		t.Fatal("singleton median wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); !almost(got, 2.5, 1e-12) {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", got)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := hashing.NewSplitMix64(7)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Norm()
	}
	f := func(qa, qb float64) bool {
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationKnownCases(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !almost(Correlation(xs, ys), 1, 1e-12) {
		t.Fatal("perfect positive correlation not 1")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !almost(Correlation(xs, neg), -1, 1e-12) {
		t.Fatal("perfect negative correlation not -1")
	}
	constant := []float64{3, 3, 3, 3, 3}
	if !math.IsNaN(Correlation(xs, constant)) {
		t.Fatal("zero-variance correlation should be NaN")
	}
	if !math.IsNaN(Correlation(nil, nil)) {
		t.Fatal("empty correlation should be NaN")
	}
}

func TestCorrelationBounded(t *testing.T) {
	rng := hashing.NewSplitMix64(11)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Norm()
			ys[i] = rng.Norm()
		}
		r := Correlation(xs, ys)
		if math.IsNaN(r) {
			continue
		}
		if r < -1-1e-12 || r > 1+1e-12 {
			t.Fatalf("correlation out of [-1,1]: %v", r)
		}
	}
}

func TestCorrelationPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Correlation([]float64{1}, []float64{1, 2})
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{4, 6, 8}
	// mean x=2, mean y=6; cov = ((-1)(-2)+0+1*2)/3 = 4/3
	if !almost(Covariance(xs, ys), 4.0/3.0, 1e-12) {
		t.Fatalf("Covariance = %v", Covariance(xs, ys))
	}
	// Cov(x,x) = Var(x).
	if !almost(Covariance(xs, xs), Variance(xs), 1e-12) {
		t.Fatal("Cov(x,x) != Var(x)")
	}
	if !math.IsNaN(Covariance(nil, nil)) {
		t.Fatal("empty covariance should be NaN")
	}
}

func TestCovariancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestCorrelationScaleInvariance(t *testing.T) {
	rng := hashing.NewSplitMix64(13)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Norm()
		ys[i] = xs[i]*0.5 + rng.Norm()
	}
	r := Correlation(xs, ys)
	scaled := make([]float64, len(xs))
	for i := range xs {
		scaled[i] = xs[i]*10 + 100
	}
	if !almost(Correlation(scaled, ys), r, 1e-9) {
		t.Fatal("correlation not invariant to affine transforms")
	}
}
