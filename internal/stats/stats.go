// Package stats provides the small statistical toolkit used by the
// experiment harness and the dataset-search substrate: streaming moments
// (including the kurtosis used to bucket Figure 5), quantiles, and Pearson
// correlation.
package stats

import (
	"math"
	"sort"
)

// Moments accumulates count, mean, and central moments M2..M4 in one pass
// using the numerically stable updating formulas of Pébay (2008) — the
// generalization of Welford's algorithm. The zero value is ready to use.
type Moments struct {
	n              int
	mean           float64
	m2, m3, m4     float64
	minSeen, maxSt float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.minSeen, m.maxSt = x, x
	} else {
		if x < m.minSeen {
			m.minSeen = x
		}
		if x > m.maxSt {
			m.maxSt = x
		}
	}
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// AddAll incorporates a batch of observations.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// N returns the number of observations.
func (m *Moments) N() int { return m.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Min returns the smallest observation (NaN when empty).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.minSeen
}

// Max returns the largest observation (NaN when empty).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.maxSt
}

// Variance returns the population variance M2/n (0 when n < 1).
func (m *Moments) Variance() float64 {
	if m.n < 1 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the unbiased variance M2/(n−1) (0 when n < 2).
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the population skewness g1 = (M3/n) / (M2/n)^{3/2}.
// Returns 0 when the variance is 0.
func (m *Moments) Skewness() float64 {
	if m.n < 1 || m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	return (m.m3 / n) / math.Pow(m.m2/n, 1.5)
}

// Kurtosis returns the population kurtosis g2 = n·M4/M2² (NOT excess:
// a normal distribution gives ≈ 3). The paper's Figure 5 buckets column
// pairs by this quantity as an outlier indicator. Returns 0 when the
// variance is 0.
func (m *Moments) Kurtosis() float64 {
	if m.n < 1 || m.m2 == 0 {
		return 0
	}
	return float64(m.n) * m.m4 / (m.m2 * m.m2)
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (NaN for empty input).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var m Moments
	m.AddAll(xs)
	return m.Variance()
}

// Kurtosis returns the population kurtosis of xs (see Moments.Kurtosis).
func Kurtosis(xs []float64) float64 {
	var m Moments
	m.AddAll(xs)
	return m.Kurtosis()
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified. Returns NaN
// for empty input; panics for q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples xs, ys. It panics on length mismatch and returns NaN when either
// side has zero variance or the inputs are empty.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation length mismatch")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Covariance returns the population covariance of the paired samples.
// It panics on length mismatch and returns NaN for empty input.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	sum := 0.0
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs))
}
