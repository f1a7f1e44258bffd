package hashing

import "math"

// This file implements the "active index" technique of Gollapudi and
// Panigrahy (CIKM 2006), the fast Weighted MinHash construction the paper
// uses in Section 5 ("Efficient Weighted Hashing").
//
// The Weighted MinHash sketch (paper Algorithm 3) conceptually expands a
// vector entry ã[j] into a block of L slots of which the first
// w_j = ã[j]²·L are active, then takes the minimum of a uniform hash over
// all active slots of all blocks. Hashing every active slot costs O(L) per
// block. Instead we simulate, per block, the *prefix-minimum record
// process* of L iid U(0,1) slot hashes:
//
//   - the first record is at slot 1 with value V₁ ~ U(0,1);
//   - given the current record value z, the gap to the next record slot is
//     Geometric(z) (each later slot beats z independently w.p. z);
//   - the next record value is U(0, z), i.e. z·U(0,1).
//
// The minimum hash over slots 1..w is then the value of the last record at
// a position ≤ w. Visiting only records costs O(log L) expected per block.
//
// Crucially the process is a deterministic function of its stream key, so
// two parties sketching different vectors agree on the entire record
// sequence for a shared block and differ only in how far (w) they read it.
// This preserves every coordination property of true slot hashing:
//
//   - PrefixMin(key, w) is distributed exactly as min of w iid U(0,1);
//   - for w_a ≤ w_b, PrefixMin(key,w_a) == PrefixMin(key,w_b) exactly when
//     no record falls in (w_a, w_b], the same event as "the argmin of the
//     longer prefix lies inside the shorter prefix" under iid hashing;
//   - min(PrefixMin(key,w_a), PrefixMin(key,w_b)) == PrefixMin(key, max).
//
// These invariants are property-tested in prefixmin_test.go.

// PrefixMin returns the minimum of w conceptual iid U(0,1) slot hashes for
// the block identified by key, visiting only O(log w) records.
// It panics if w == 0 (an inactive block has no hash).
func PrefixMin(key uint64, w uint64) float64 {
	if w == 0 {
		panic("hashing: PrefixMin of an empty block")
	}
	rng := SplitMix64{state: key} // stack-allocated: PrefixMin is hot
	z := rng.Float64()            // record at slot 1
	pos := uint64(1)
	for pos < w {
		gap, ok := geometricGap(&rng, z, w-pos)
		if !ok {
			break // next record falls beyond slot w
		}
		pos += gap
		z *= rng.Float64() // new record value: U(0, z)
		if z == 0 {
			// Full underflow is astronomically unlikely (needs ~2^60
			// records); clamp so the value stays a valid positive hash.
			z = math.SmallestNonzeroFloat64
		}
	}
	return z
}

// geometricGap draws G ~ Geometric(z) (support 1, 2, ...; P(G=g) =
// (1−z)^{g−1}·z) by inversion, returning (G, true) if G ≤ limit and
// (0, false) otherwise. Working in floats first avoids uint64 overflow when
// z is tiny and G would be enormous.
func geometricGap(rng *SplitMix64, z float64, limit uint64) (uint64, bool) {
	u := rng.Float64()
	// ln(1−z) is negative; for z extremely close to 1 it is −Inf and the
	// ratio is +0, giving G = 1 as it should.
	f := math.Log(u) / math.Log1p(-z)
	if f >= float64(limit) { // also catches +Inf / NaN-free paths
		return 0, false
	}
	g := uint64(f) + 1
	if g > limit {
		return 0, false
	}
	return g, true
}

// UnitFromBits maps a 64-bit word to a float in the open interval (0,1).
func UnitFromBits(u uint64) float64 {
	return (float64(u>>11) + 0.5) * (1.0 / (1 << 53))
}

// BlockMinNaive computes the same quantity as PrefixMin by explicitly
// hashing every slot 1..w of the block, the way a direct implementation of
// paper Algorithm 3 would. Each slot hash is an independent uniform derived
// from (key, slot) — the idealized fully random hash the paper's analysis
// assumes (a 2-wise affine family is *not* a valid reference here: its
// values on the consecutive slot indices of one block form an arithmetic
// progression mod p, whose minimum is biased upward versus iid uniforms).
//
// BlockMinNaive costs O(w) and exists so tests and ablation benchmarks can
// compare the O(log w) record process against literal slot hashing. The two
// are equal in distribution but not bitwise (different randomness).
func BlockMinNaive(key uint64, w uint64) float64 {
	if w == 0 {
		panic("hashing: BlockMinNaive of an empty block")
	}
	m := math.Inf(1)
	for s := uint64(1); s <= w; s++ {
		if v := UnitFromBits(Mix(key, s)); v < m {
			m = v
		}
	}
	return m
}
