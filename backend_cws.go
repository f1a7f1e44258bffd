package ipsketch

import (
	"fmt"

	"repro/internal/cws"
)

// cwsBackend adapts internal/cws — Ioffe's Improved Consistent Weighted
// Sampling, the continuous-weight alternative to WMH's discretized
// expansion (DESIGN.md §2).
var cwsBackend = &backend{
	name: "ICWS",
	size: func(cfg Config) (int, error) {
		// 2.5 words per sample (index + level + value) after one norm word.
		s := int(float64(cfg.StorageWords-1) / 2.5)
		if s < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for ICWS", cfg.StorageWords)
		}
		return s, nil
	},
	newBuilder: func(cfg Config, size int) (builder, error) {
		return builds(cws.NewBuilder(cws.Params{M: size, Seed: cfg.Seed}))
	},
	compatible: check(cws.Compatible),
	estimate:   pair(cws.Estimate),
	unmarshal:  decode[cws.Sketch],
	// Per sample, the entry with the smaller reconstructed Ioffe acceptance
	// wins. Partials must share the parent's normalization (shards);
	// cws.Merge rejects unequal stored norms.
	merge: merged(cws.Merge),
	// Contiguous support shards scored under the parent's norm, so the
	// merged result is bitwise the direct sketch.
	shards: func(cfg Config, size int, v Vector, n int) ([]payload, error) {
		return payloads(cws.Shards(v, cws.Params{M: size, Seed: cfg.Seed}, n))
	},
	// The per-sample collision rate estimates the weighted Jaccard
	// similarity exactly as WMH does.
	jaccard: pair(cws.WeightedJaccardEstimate),
}
