package ipsketch

import (
	"fmt"

	"repro/internal/wmh"
)

// wmhBackend adapts internal/wmh — the paper's Weighted MinHash sketch
// (Algorithms 3–5). It is the only method that estimates its own error
// bound (Theorem 2 is data-driven through the stored norms) and the only
// one honoring Config.Quantize.
var wmhBackend = &backend{
	name: "WMH",
	size: func(cfg Config) (int, error) {
		// 1.5 words per sample after one word for the stored norm; Quantize
		// shrinks values to 32 bits (1 word per sample).
		perSample := 1.5
		if cfg.Quantize {
			perSample = 1.0
		}
		s := int(float64(cfg.StorageWords-1) / perSample)
		if s < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for WMH", cfg.StorageWords)
		}
		return s, nil
	},
	// A bundle's vectors share one key set, so the builder fills them all
	// from one dart walk over the blocks (wmh.Builder.SketchAll).
	newBuilder: func(cfg Config, size int) (builder, error) {
		b, err := wmh.NewBuilder(cfg.wmhParams(size))
		if err != nil {
			return nil, err
		}
		return builderOf[*wmh.Sketch]{one: b.Sketch, all: b.SketchAll}, nil
	},
	compatible: check(wmh.Compatible),
	estimate:   pair(wmh.Estimate),
	unmarshal:  decode[wmh.Sketch],
	// Union-min over the per-sample minima. Partials must
	// share the parent's normalization (shards); wmh.Merge rejects unequal
	// stored norms.
	merge: merged(wmh.Merge),
	// The vector is rounded once and its blocks partitioned, so every
	// partial carries the parent's normalization and the merged result is
	// bitwise the direct sketch.
	shards: func(cfg Config, size int, v Vector, n int) ([]payload, error) {
		return payloads(wmh.Shards(v, cfg.wmhParams(size), n))
	},
	// The Theorem 2 error scale max(‖a_I‖‖b‖, ‖a‖‖b_I‖)/√m estimated from
	// the sketches themselves.
	withBound: func(a, b payload) (float64, float64, error) {
		pa, pb, err := payloadPair[*wmh.Sketch](a, b)
		if err != nil {
			return 0, 0, err
		}
		estimate, err := wmh.Estimate(pa, pb)
		if err != nil {
			return 0, 0, err
		}
		bound, err := wmh.EstimateErrorBound(pa, pb)
		if err != nil {
			return 0, 0, err
		}
		return estimate, bound.PerSqrtM, nil
	},
	// The per-sample minima (float bits), whose entries collide across
	// sketches with probability equal to the weighted Jaccard similarity.
	// Empty sketches yield nil.
	signature: appending((*wmh.Sketch).AppendSignature),
	// Params and resolved L pin through wmh.Compatible; a retired
	// construction's sketch never decodes, so it never reaches an index
	// (and so a pack).
	packs: &packFamily[wmh.Sketch, *wmh.Sketch, float64]{
		score: wmh.Score,
		view:  (*wmh.Sketch).View,
	},
	quantize: true,
}
