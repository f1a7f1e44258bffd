package ipsketch

import (
	"fmt"

	"repro/internal/minhash"
)

// mhBackend adapts internal/minhash — the paper's augmented unweighted
// MinHash (Algorithms 1–2). Its stored hash minima double as an LSH
// signature.
var mhBackend = &backend{
	name: "MH",
	size: func(cfg Config) (int, error) {
		// 1.5 words per sample (32-bit hash + 64-bit value).
		s := int(float64(cfg.StorageWords) / 1.5)
		if s < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for MH", cfg.StorageWords)
		}
		return s, nil
	},
	newBuilder: func(cfg Config, size int) (builder, error) {
		return builds(minhash.NewBuilder(minhash.Params{M: size, Seed: cfg.Seed}))
	},
	compatible: check(minhash.Compatible),
	estimate:   pair(minhash.Estimate),
	unmarshal:  decode[minhash.Sketch],
	// Union-min over the index-keyed sample hashes — exact for disjoint
	// supports, union semantics for shared indices.
	merge: merged(minhash.Merge),
	// The per-sample minima, whose entries collide across sketches with
	// probability equal to the support Jaccard similarity. Empty sketches
	// yield nil.
	signature: appending((*minhash.Sketch).AppendSignature),
	// MH has no dedicated join-size estimator (EstimateJoinSize reduces to
	// Estimate), so the size is one more operand of the key-pack kernel.
	packs: &packFamily[minhash.Sketch, *minhash.Sketch, uint64]{
		score: minhash.Score,
		view:  (*minhash.Sketch).View,
	},
}
