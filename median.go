package ipsketch

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
)

// MedianSketcher implements the paper's success-probability boosting
// ("median trick", proof of Theorem 2): it concatenates t = O(log(1/δ))
// independent sketches built from derived seeds and estimates with the
// median of the t individual estimates. Each individual estimate is within
// the Theorem 2 error bound with probability ≥ 2/3, so by a Chernoff
// bound the median is within the bound with probability ≥ 1 − δ for
// t = O(log(1/δ)).
//
// Boosting is method-agnostic: each repetition dispatches through the
// backend registry via Estimate, so every registered method — including
// ones added after this file was written — boosts the same way.
type MedianSketcher struct {
	sketchers []*Sketcher
}

// MedianReps returns the repetition count t for a failure probability δ:
// the smallest odd t ≥ 8·ln(1/δ). The constant 8 is an engineering choice
// for the O(log(1/δ)) of the Chernoff argument above, not derived from it;
// t is forced odd so the median is a single estimate.
func MedianReps(delta float64) (int, error) {
	if delta <= 0 || delta >= 1 {
		return 0, errors.New("ipsketch: delta must be in (0,1)")
	}
	t := int(math.Ceil(8 * math.Log(1/delta)))
	if t < 1 {
		t = 1
	}
	if t%2 == 0 {
		t++
	}
	return t, nil
}

// NewMedianSketcher builds t independent sketchers from cfg with derived
// seeds. The per-repetition budget is cfg.StorageWords; the total sketch
// costs t × cfg.StorageWords words.
func NewMedianSketcher(cfg Config, t int) (*MedianSketcher, error) {
	if t <= 0 {
		return nil, errors.New("ipsketch: repetition count must be positive")
	}
	ms := &MedianSketcher{sketchers: make([]*Sketcher, t)}
	for i := range ms.sketchers {
		c := cfg
		c.Seed = hashing.Mix(cfg.Seed, uint64(i), 0x6d6564 /* "med" */)
		s, err := NewSketcher(c)
		if err != nil {
			return nil, err
		}
		ms.sketchers[i] = s
	}
	return ms, nil
}

// Reps returns the repetition count t.
func (ms *MedianSketcher) Reps() int { return len(ms.sketchers) }

// MedianSketch is a concatenation of t independent sketches of one vector.
type MedianSketch struct {
	parts []*Sketch
}

// Sketch summarizes v with all t sketchers.
func (ms *MedianSketcher) Sketch(v Vector) (*MedianSketch, error) {
	out := &MedianSketch{parts: make([]*Sketch, len(ms.sketchers))}
	for i, s := range ms.sketchers {
		sk, err := s.Sketch(v)
		if err != nil {
			return nil, err
		}
		out.parts[i] = sk
	}
	return out, nil
}

// StorageWords returns the total size of the concatenated sketch.
func (msk *MedianSketch) StorageWords() float64 {
	total := 0.0
	for _, p := range msk.parts {
		total += p.StorageWords()
	}
	return total
}

// EstimateMedian returns the median of the t per-repetition estimates.
func EstimateMedian(a, b *MedianSketch) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("ipsketch: nil median sketch")
	}
	if len(a.parts) != len(b.parts) {
		return 0, fmt.Errorf("ipsketch: repetition mismatch %d vs %d", len(a.parts), len(b.parts))
	}
	ests := make([]float64, len(a.parts))
	for i := range ests {
		e, err := Estimate(a.parts[i], b.parts[i])
		if err != nil {
			return 0, err
		}
		ests[i] = e
	}
	sort.Float64s(ests)
	n := len(ests)
	if n%2 == 1 {
		return ests[n/2], nil
	}
	return 0.5 * (ests[n/2-1] + ests[n/2]), nil
}
