// Package datagen generates the synthetic workloads of the paper's
// experimental evaluation (Section 5.1): pairs of sparse vectors with a
// controlled overlap ratio between their supports and a controlled
// fraction of large-magnitude outliers.
//
// Paper configuration: length-10000 vectors with 2000 non-zero entries
// each; the non-zero entries are "normal random variables with values
// between −1 and 1, except 10% of entries are chosen randomly as outliers
// and set to random values between 20 and 30". The overlap ratio (fraction
// of non-zero positions shared by both vectors) is the experimental knob
// of Figure 4: 1%, 5%, 10%, 50%.
package datagen

import (
	"errors"
	"fmt"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// PairParams configures SyntheticPair. The zero value is not valid; use
// PaperPairParams for the paper's Figure 4 configuration.
type PairParams struct {
	// N is the vector length (dimension).
	N uint64
	// NNZ is the number of non-zero entries in each vector.
	NNZ int
	// Overlap is the fraction of non-zero positions shared by both
	// vectors, in [0, 1].
	Overlap float64
	// OutlierFrac is the fraction of non-zero entries drawn as outliers.
	OutlierFrac float64
	// OutlierLo and OutlierHi bound the outlier magnitude.
	OutlierLo, OutlierHi float64
	// NegativeOutliers, when true, flips the sign of roughly half the
	// outliers. The paper's outliers are positive (values "between 20 and
	// 30"); this is an extension knob.
	NegativeOutliers bool
	// Seed makes the pair reproducible.
	Seed uint64
}

// PaperPairParams returns the exact Section 5.1 configuration for a given
// overlap ratio and seed.
func PaperPairParams(overlap float64, seed uint64) PairParams {
	return PairParams{
		N:           10000,
		NNZ:         2000,
		Overlap:     overlap,
		OutlierFrac: 0.10,
		OutlierLo:   20,
		OutlierHi:   30,
		Seed:        seed,
	}
}

// Validate reports whether the parameters are consistent.
func (p PairParams) Validate() error {
	if p.N == 0 {
		return errors.New("datagen: N must be positive")
	}
	if p.NNZ <= 0 {
		return errors.New("datagen: NNZ must be positive")
	}
	if p.Overlap < 0 || p.Overlap > 1 {
		return fmt.Errorf("datagen: overlap %v outside [0,1]", p.Overlap)
	}
	if p.OutlierFrac < 0 || p.OutlierFrac > 1 {
		return fmt.Errorf("datagen: outlier fraction %v outside [0,1]", p.OutlierFrac)
	}
	if p.OutlierLo > p.OutlierHi {
		return errors.New("datagen: outlier bounds inverted")
	}
	shared := int(p.Overlap * float64(p.NNZ))
	needed := uint64(2*p.NNZ - shared)
	if needed > p.N {
		return fmt.Errorf("datagen: dimension %d too small for two supports of %d with overlap %v", p.N, p.NNZ, p.Overlap)
	}
	return nil
}

// SyntheticPair draws a vector pair per the paper's Section 5.1 recipe.
// The overlap is exact: ⌊Overlap·NNZ⌋ positions are shared.
func SyntheticPair(p PairParams) (a, b vector.Sparse, err error) {
	if err := p.Validate(); err != nil {
		return vector.Sparse{}, vector.Sparse{}, err
	}
	rng := hashing.NewSplitMix64(hashing.Mix(p.Seed, 0x647067 /* "dpg" */))
	shared := int(p.Overlap * float64(p.NNZ))
	only := p.NNZ - shared

	positions := sampleDistinct(rng, p.N, shared+2*only)
	sharedIdx := positions[:shared]
	aOnly := positions[shared : shared+only]
	bOnly := positions[shared+only:]

	am := make(map[uint64]float64, p.NNZ)
	bm := make(map[uint64]float64, p.NNZ)
	for _, i := range sharedIdx {
		am[i] = p.drawValue(rng)
		bm[i] = p.drawValue(rng)
	}
	for _, i := range aOnly {
		am[i] = p.drawValue(rng)
	}
	for _, i := range bOnly {
		bm[i] = p.drawValue(rng)
	}
	a, err = vector.FromMap(p.N, am)
	if err != nil {
		return vector.Sparse{}, vector.Sparse{}, err
	}
	b, err = vector.FromMap(p.N, bm)
	if err != nil {
		return vector.Sparse{}, vector.Sparse{}, err
	}
	return a, b, nil
}

// drawValue draws one non-zero entry: a truncated standard normal in
// [−1, 1], or with probability OutlierFrac an outlier in
// [OutlierLo, OutlierHi].
func (p PairParams) drawValue(rng *hashing.SplitMix64) float64 {
	if rng.Float64() < p.OutlierFrac {
		v := p.OutlierLo + rng.Float64()*(p.OutlierHi-p.OutlierLo)
		if p.NegativeOutliers && rng.Float64() < 0.5 {
			v = -v
		}
		return v
	}
	for {
		v := rng.Norm()
		if v >= -1 && v <= 1 && v != 0 {
			return v
		}
	}
}

// samplePool is used by sampleDistinct for small domains.
func samplePool(rng *hashing.SplitMix64, n uint64, k int) []uint64 {
	pool := make([]uint64, n)
	for i := range pool {
		pool[i] = uint64(i)
	}
	hashing.Shuffle(rng, pool)
	return pool[:k]
}

// sampleDistinct draws k distinct indices uniformly from [0, n). For small
// domains it shuffles the whole range (exact, no rejection); for large
// domains it rejection-samples into a set.
func sampleDistinct(rng *hashing.SplitMix64, n uint64, k int) []uint64 {
	if uint64(k) > n {
		panic("datagen: cannot sample more distinct indices than the domain holds")
	}
	if n <= 1<<20 {
		return samplePool(rng, n, k)
	}
	seen := make(map[uint64]struct{}, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		i := rng.Uint64n(n)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}
