package wmh

import (
	"math"

	"repro/internal/hashing"
)

// This file implements the dart-throwing WMH construction (Params.Dart,
// variantDart). The record-process variants pay one PrefixMin walk per
// (block, sample) pair — O(nnz·M·log L) per sketch. The dart variant
// instead enumerates, per block, the expected O(M·τ·w/L) darts that can
// possibly be a per-sample minimum (hashing.DartProcess), filling all M
// (hash, val) pairs in ONE pass over the rounded blocks: expected
// O(nnz + M log M) work up to the dyadic cell walk. The per-sample law
// is exactly the min-of-L-uniforms law of variantFast — same marginals,
// same collision law, same FM union estimator — but from different
// randomness, so the variants are not comparable with each other.
//
// Unlike fillBlockMajor, the dart pass is not split across workers: the
// whole point is that one pass serves every sample, and a per-chunk split
// would regenerate all darts per chunk. At ~1ms/sketch the single pass is
// no longer the bottleneck; parallelism belongs at the many-vectors level
// (one Builder per worker), which is how SketchAll already runs.

// dartMaxRounds caps the miss-fallback rounds. Each round k leaves a given
// sample without a dart with probability e^{−τ(2^(k+1)−1)} (τ ≥ 2), so
// reaching round 8 has probability below e^{−500} per sample — unreachable;
// the cap only bounds the worst case so construction provably terminates.
const dartMaxRounds = 8

// dartBlockKey derives the per-block dart stream key. It is shared by both
// parties sketching different vectors — per-sample randomness comes from
// the darts themselves, not from per-sample keys.
func dartBlockKey(seed uint64, block uint64) uint64 {
	return hashing.Extend(hashing.Extend(hashing.Mix(seed), block), 0x776d68+uint64(variantDart))
}

// fillDart computes every MinHash sample of the sketch in one dart pass
// per round: for each rounded block, enumerate its darts and fold them
// into the running per-sample minima. Samples missed by a round (expected
// ~0.14 of M per sketch) are retried by the next round's doubled dart
// budget; a round's darts are strictly smaller than the next round's, so
// any sample holding a dart after a full round is final.
func fillDart(hashes, vals []float64, seed uint64, idx, weights []uint64, bvals []float64, dp *hashing.DartProcess) {
	for i := range hashes {
		hashes[i] = math.Inf(1)
		vals[i] = 0
	}
	missing := len(hashes)
	for round := 0; missing > 0; round++ {
		if round == dartMaxRounds {
			// Unreachable in any physical run (see dartMaxRounds); fill
			// with the supremum of the value range so termination is
			// unconditional.
			for i := range hashes {
				if math.IsInf(hashes[i], 1) {
					hashes[i] = 1
					vals[i] = bvals[0]
				}
			}
			break
		}
		for k := range idx {
			samples, values := dp.ThrowBlock(dartBlockKey(seed, idx[k]), weights[k], round)
			bv := bvals[k]
			for d, i := range samples {
				if v := values[d]; v < hashes[i] {
					if math.IsInf(hashes[i], 1) {
						missing--
					}
					hashes[i] = v
					vals[i] = bv
				}
			}
		}
	}
}
