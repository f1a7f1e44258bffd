package ipsketch

import (
	"fmt"

	"repro/internal/cws"
)

// cwsBackend adapts internal/cws — Ioffe's Improved Consistent Weighted
// Sampling, the continuous-weight alternative to WMH's discretized
// expansion (DESIGN.md §2).
type cwsBackend struct{}

func init() { register(MethodICWS, cwsBackend{}) }

func (cwsBackend) name() string { return "ICWS" }

func (cwsBackend) size(cfg Config) (int, error) {
	// 2.5 words per sample (index + level + value) after one norm word.
	s := int(float64(cfg.StorageWords-1) / 2.5)
	if s < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for ICWS", cfg.StorageWords)
	}
	return s, nil
}

func (cwsBackend) params(cfg Config, size int) cws.Params {
	return cws.Params{M: size, Seed: cfg.Seed}
}

func (be cwsBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := cws.NewBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return builderOf[*cws.Sketch](b.Sketch), nil
}

func (cwsBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*cws.Sketch](a, b)
	if err != nil {
		return err
	}
	return cws.Compatible(pa, pb)
}

func (cwsBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*cws.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return cws.Estimate(pa, pb)
}

func (cwsBackend) unmarshal(data []byte) (payload, error) {
	s := new(cws.Sketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// merge implements merger: per sample, the entry with the smaller
// reconstructed Ioffe acceptance wins. Partials must share the parent's
// normalization (sketchShards); cws.Merge rejects unequal stored norms.
func (cwsBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*cws.Sketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := cws.Merge(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sketchShards implements shardSketcher: contiguous support shards scored
// under the parent's norm, so the merged result is bitwise the direct
// sketch.
func (be cwsBackend) sketchShards(cfg Config, size int, v Vector, n int) ([]payload, error) {
	sks, err := cws.Shards(v, be.params(cfg, size), n)
	if err != nil {
		return nil, err
	}
	out := make([]payload, len(sks))
	for i, sk := range sks {
		out[i] = sk
	}
	return out, nil
}

// estimateJaccard implements similarityEstimator: the per-sample collision
// rate estimates the weighted Jaccard similarity exactly as WMH does.
func (cwsBackend) estimateJaccard(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*cws.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return cws.WeightedJaccardEstimate(pa, pb)
}
