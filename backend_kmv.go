package ipsketch

import (
	"fmt"

	"repro/internal/kmv"
)

// kmvBackend adapts internal/kmv — the K-Minimum-Values bottom-k sketch.
// Its coordinated sample has a dedicated join-size estimator that ignores
// values entirely.
var kmvBackend = &backend{
	name: "KMV",
	size: func(cfg Config) (int, error) {
		// 1.5 words per retained sample (32-bit hash + 64-bit value).
		s := int(float64(cfg.StorageWords) / 1.5)
		if s < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for KMV", cfg.StorageWords)
		}
		return s, nil
	},
	newBuilder: func(cfg Config, size int) (builder, error) {
		return builds(kmv.NewBatchBuilder(kmv.Params{K: size, Seed: cfg.Seed}))
	},
	compatible: check(kmv.Compatible),
	estimate:   pair(kmv.Estimate),
	unmarshal:  decode[kmv.Sketch],
	// The deduplicated union of the retained bottom-k pairs, truncated to
	// the k smallest — exact for disjoint supports, with the merged support
	// size an upper bound under unobserved overlap.
	merge: merged(kmv.Merge),
	// The threshold estimate of |A∩B| from matched hashes alone, exact
	// under full retention.
	joinSize: pair(kmv.JoinSizeEstimate),
	// KMV has a joinSize estimator, so the size slot carries the
	// threshold |A∩B| estimate, not the inner-product reduction.
	packs: &packFamily[*kmv.Sketch, uint64]{
		scan:         kmv.Scan,
		scanJoinSize: kmv.ScanJoinSize,
	},
}
