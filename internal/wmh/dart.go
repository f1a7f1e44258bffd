package wmh

import (
	"math"

	"repro/internal/hashing"
)

// This file implements the dart-throwing WMH construction (wire variant 4).
// The paper's record process pays one prefix-minimum walk per
// (block, sample) pair — O(nnz·M·log L) per sketch. The dart construction
// instead enumerates, per block, the expected O(M·τ·w/L) darts that can
// possibly be a per-sample minimum (hashing.DartProcess), filling all M
// (hash, val) pairs in ONE pass over the rounded blocks: expected
// O(nnz + M log M) work up to the cell walk's log factor. The per-sample law
// is exactly the min-of-L-uniforms law of the record process — same
// marginals, same collision law, same FM union estimator — but from
// different randomness, so the retired record-process sketches are not
// comparable with dart sketches.
//
// A block's darts are keyed by (seed, block, round), never by the block's
// weight, so every vector holding a block reads a prefix of the same
// stream and keeps the darts whose slot falls inside its own weight.
// fillDart exploits that across vectors: the key, value and squared-value
// vectors of a table bundle share one key set, and one throw per block at
// the largest of their weights serves all of them. A throw walks about
// top − base + 1 cells (hashing.DartProcess), two or three for a block of
// a 2000-row table at the served L = 2⁵⁰, so sharing saves the extra
// vectors' key derivations and Poisson draws rather than a long walk.
//
// The dart pass is not split across workers: the whole point is that one
// pass serves every sample, and a per-chunk split would regenerate all
// darts per chunk. At ~1ms/sketch the single pass is
// no longer the bottleneck; parallelism belongs at the many-vectors level
// (one Builder per worker), which is how ipsketch.Sketcher.SketchAll runs.

// dartMaxRounds caps the miss-fallback rounds. Each round k leaves a given
// sample without a dart with probability e^{−τ(2^(k+1)−1)} (τ ≥ 2), so
// reaching round 8 has probability below e^{−500} per sample — unreachable;
// the cap only bounds the worst case so construction provably terminates.
const dartMaxRounds = 8

// dartBlockKey derives the per-block dart stream key. It is shared by both
// parties sketching different vectors — per-sample randomness comes from
// the darts themselves, not from per-sample keys.
func dartBlockKey(seed uint64, block uint64) uint64 {
	return hashing.Extend(hashing.Extend(hashing.Mix(seed), block), 0x776d68+dartVariant)
}

// fillDart computes every MinHash sample of every job in one dart pass per
// round: for each rounded block, enumerate its darts and fold them into
// the running per-sample minima. Samples missed by a round (expected ~0.14
// of M per sketch) are retried by the next round's doubled dart budget; a
// round's darts are strictly smaller than the next round's, so any sample
// holding a dart after a full round is final. The minima are kept as dart
// positions ν, which order the darts as their values t = 1−e^{−ν} do, and
// each is converted to its value once, when the fill returns.
//
// The jobs share one walk. Each round merge-walks their sorted block
// indices; a block is thrown once, at the largest weight among the jobs
// that hold it, and each of them keeps the darts with slot ≤ its own
// weight — exactly the darts a throw at its own weight returns, in the
// same order. A job takes part in a round only if it still missed a sample
// when the round began, as it would alone, so every job's samples are
// bitwise those of filling it by itself (the one-job case).
//
// It returns the number of blocks it threw.
func fillDart(jobs []fillJob, seed uint64, dp *hashing.DartProcess) (throws int) {
	for j := range jobs {
		f := &jobs[j]
		for i := range f.hashes {
			f.hashes[i] = math.Inf(1)
			f.vals[i] = 0
		}
		f.missing = len(f.hashes)
	}
	for round := 0; ; round++ {
		live := 0
		for j := range jobs {
			f := &jobs[j]
			if f.missing == 0 {
				f.next = len(f.idx) // done: sits out the walk
				continue
			}
			f.next = 0
			live++
		}
		if live == 0 || round == dartMaxRounds {
			// Round dartMaxRounds is unreachable in any physical run (see
			// dartMaxRounds); a sample still missing then takes the
			// supremum of the value range, so termination is
			// unconditional.
			for j := range jobs {
				f := &jobs[j]
				for i, nu := range f.hashes {
					if math.IsInf(nu, 1) {
						f.hashes[i] = 1
						f.vals[i] = f.bvals[0]
					} else {
						f.hashes[i] = hashing.DartValue(nu)
					}
				}
			}
			return throws
		}
		for {
			// The smallest block not yet visited by a live job, and the
			// largest weight any of them holds it at.
			var block, w uint64
			found := false
			for j := range jobs {
				f := &jobs[j]
				if f.next == len(f.idx) {
					continue
				}
				switch bi := f.idx[f.next]; {
				case !found || bi < block:
					block, w, found = bi, f.weights[f.next], true
				case bi == block:
					w = max(w, f.weights[f.next])
				}
			}
			if !found {
				break
			}
			samples, nus, slots := dp.ThrowBlock(dartBlockKey(seed, block), w, round)
			throws++
			for j := range jobs {
				f := &jobs[j]
				if f.next == len(f.idx) || f.idx[f.next] != block {
					continue
				}
				fw, bv := f.weights[f.next], f.bvals[f.next]
				f.next++
				for d, i := range samples {
					if nu := nus[d]; slots[d] <= fw && nu < f.hashes[i] {
						if math.IsInf(f.hashes[i], 1) {
							f.missing--
						}
						f.hashes[i] = nu
						f.vals[i] = bv
					}
				}
			}
		}
	}
}
