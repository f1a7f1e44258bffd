package wmh

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// This file keeps the paper's own WMH construction as the reference the
// dart construction is tested against: the "active index" technique of
// Gollapudi and Panigrahy (CIKM 2006), which the paper uses in Section 5
// ("Efficient Weighted Hashing"). New no longer builds it and the decoder
// refuses its sketches, but the retired goldens under testdata/retired
// are rebuilt from it bit for bit.
//
// Algorithm 3 conceptually expands a vector entry ã[j] into a block of L
// slots of which the first w_j = ã[j]²·L are active, then takes the
// minimum of a uniform hash over all active slots of all blocks. Instead
// of hashing every active slot, prefixMin simulates, per block and sample,
// the *prefix-minimum record process* of L iid U(0,1) slot hashes:
//
//   - the first record is at slot 1 with value V₁ ~ U(0,1);
//   - given the current record value z, the gap to the next record slot is
//     Geometric(z) (each later slot beats z independently w.p. z);
//   - the next record value is U(0, z), i.e. z·U(0,1).
//
// The minimum hash over slots 1..w is the value of the last record at a
// position ≤ w, so a block costs O(log L) expected. The process is a
// deterministic function of its stream key, so two parties sharing a block
// agree on its whole record sequence and differ only in how far (w) they
// read it:
//
//   - prefixMin(key, w) is distributed exactly as min of w iid U(0,1);
//   - for w_a ≤ w_b, prefixMin(key,w_a) == prefixMin(key,w_b) exactly when
//     no record falls in (w_a, w_b], the same event as "the argmin of the
//     longer prefix lies inside the shorter prefix" under iid hashing;
//   - min(prefixMin(key,w_a), prefixMin(key,w_b)) == prefixMin(key, max).
//
// prefixmin_test.go property-tests these invariants.

// variant is the construction byte a record-process sketch shipped with
// on the wire; it also keys the block streams.
type variant uint8

const (
	// variantFast is the active-index record process (prefixMin).
	variantFast variant = 0
	// variantNaive hashes every active slot explicitly (blockMinNaive).
	variantNaive variant = 1
)

// variantOffset is where the construction byte sits in a WMH payload:
// after M, Seed, L (8 each), quantized (1), resolved L, dim, norm (8
// each) and empty (1).
const variantOffset = 3*8 + 1 + 3*8 + 1

// prefixMin returns the minimum of w conceptual iid U(0,1) slot hashes for
// the block identified by key, visiting only O(log w) records. It panics
// if w == 0 (an inactive block has no hash).
func prefixMin(key uint64, w uint64) float64 {
	if w == 0 {
		panic("wmh: prefixMin of an empty block")
	}
	rng := hashing.NewSplitMix64(key)
	z := rng.Float64() // record at slot 1
	pos := uint64(1)
	for pos < w {
		gap, ok := geometricGap(rng, z, w-pos)
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
func geometricGap(rng *hashing.SplitMix64, z float64, limit uint64) (uint64, bool) {
	u := rng.Float64()
	// ln(1−z) is negative; for z extremely close to 1 it is −Inf and the
	// ratio is +0, giving G = 1 as it should.
	f := math.Log(u) / math.Log1p(-z)
	if f >= float64(limit) {
		return 0, false
	}
	g := uint64(f) + 1
	if g > limit {
		return 0, false
	}
	return g, true
}

// blockMinNaive computes the same quantity as prefixMin by hashing every
// slot 1..w of the block, the literal reading of Algorithm 3. Each slot
// hash is an independent uniform derived from (key, slot) — the idealized
// fully random hash the paper's analysis assumes (a 2-wise affine family
// is *not* a valid reference here: its values on the consecutive slot
// indices of one block form an arithmetic progression mod p, whose minimum
// is biased upward versus iid uniforms). It costs O(w); the two are equal
// in distribution but not bitwise (different randomness).
func blockMinNaive(key uint64, w uint64) float64 {
	if w == 0 {
		panic("wmh: blockMinNaive of an empty block")
	}
	m := math.Inf(1)
	for s := uint64(1); s <= w; s++ {
		if v := hashing.UnitFromBits(hashing.Mix(key, s)); v < m {
			m = v
		}
	}
	return m
}

// blockKey derives the per-(sample, block) stream key of the record
// process. Both parties sketching different vectors derive the same key
// for a shared block, which is what coordinates the samples.
// fillBlockMajor derives the same key incrementally:
// blockKey == Extend(Extend(Mix(seed, sample), block), tag).
func blockKey(seed uint64, sample int, block uint64, vr variant) uint64 {
	return hashing.Mix(seed, uint64(sample), block, 0x776d68+uint64(vr) /* "wmh" */)
}

// fillBlockMajor computes the record-process samples hashes[i], vals[i]
// for a contiguous chunk of samples in block-major order: the outer loop
// walks the blocks once and the inner loop drives the running minima of
// every sample in the chunk, deriving each pair key with two mixes off the
// per-sample prefix skeys[i] = Mix(seed, i). Its output is bitwise that of
// the sample-major buildSampleMajor (the running minimum takes the first
// strictly smaller hash in block order either way).
func fillBlockMajor(hashes, vals []float64, skeys []uint64, idx, weights []uint64, bvals []float64) {
	for i := range hashes {
		hashes[i] = math.Inf(1)
		vals[i] = 0
	}
	tag := 0x776d68 + uint64(variantFast) /* "wmh" */
	for k := range idx {
		for i := range skeys {
			key := hashing.Extend(hashing.Extend(skeys[i], idx[k]), tag)
			if h := prefixMin(key, weights[k]); h < hashes[i] {
				hashes[i] = h
				vals[i] = bvals[k]
			}
		}
	}
}

// newRecord sketches v with the record process (variantFast), the
// construction New used before the dart construction replaced it: blocks
// as New rounds them, samples split across workers.
func newRecord(v vector.Sparse, p Params) *Sketch {
	l := p.effectiveL(v.Dim())
	s := &Sketch{params: p, dim: v.Dim(), l: l, norm: v.Norm()}
	idx, weights := Round(v, l)
	if len(idx) == 0 {
		s.empty = true
		return s
	}
	bvals := roundedValues(nil, v, idx, weights, l, p.QuantizeValues)
	prefix := hashing.Mix(p.Seed)
	skeys := make([]uint64, p.M)
	for i := range skeys {
		skeys[i] = hashing.Extend(prefix, uint64(i))
	}
	s.hashes, s.vals = make([]float64, p.M), make([]float64, p.M)
	hashing.ParallelChunks(p.M, func(lo, hi int) {
		fillBlockMajor(s.hashes[lo:hi], s.vals[lo:hi], skeys[lo:hi], idx, weights, bvals)
	})
	return s
}

// buildSampleMajor is the reference construction of the record process:
// for each sample, walk every block and re-mix the full
// (seed, sample, block, tag) key. Under variantFast it is what the
// block-major loop must match bitwise; under variantNaive it hashes every
// active slot (blockMinNaive), the literal reading of Algorithm 3 at O(L)
// per sample that the record process is checked against statistically.
func buildSampleMajor(v vector.Sparse, p Params, vr variant) *Sketch {
	l := p.effectiveL(v.Dim())
	s := &Sketch{params: p, dim: v.Dim(), l: l, norm: v.Norm()}
	if v.IsEmpty() {
		s.empty = true
		return s
	}
	idx, weights := Round(v, l)
	vals := make([]float64, len(idx))
	for k := range idx {
		sign := 1.0
		if v.At(idx[k]) < 0 {
			sign = -1.0
		}
		vals[k] = sign * math.Sqrt(float64(weights[k])/float64(l))
		if p.QuantizeValues {
			vals[k] = float64(float32(vals[k]))
		}
	}
	s.hashes = make([]float64, p.M)
	s.vals = make([]float64, p.M)
	for i := 0; i < p.M; i++ {
		minHash := math.Inf(1)
		minVal := 0.0
		for k := range idx {
			key := blockKey(p.Seed, i, idx[k], vr)
			var h float64
			switch vr {
			case variantFast:
				h = prefixMin(key, weights[k])
			default:
				h = blockMinNaive(key, weights[k])
			}
			if h < minHash {
				minHash = h
				minVal = vals[k]
			}
		}
		s.hashes[i] = minHash
		s.vals[i] = minVal
	}
	return s
}

// goldenVector is the root package's golden vector (serialize_golden_test.go):
// mixed signs, magnitudes spanning several decades, irregular index gaps.
func goldenVector() vector.Sparse {
	idx := make([]uint64, 40)
	vals := make([]float64, 40)
	for i := range idx {
		idx[i] = uint64(i*i*3 + i + 1)
		sign := 1.0
		if i%3 == 1 {
			sign = -1
		}
		scale := 1.0 // 10^(i%5−2), by the same float steps
		for e := i%5 - 2; e > 0; e-- {
			scale *= 10
		}
		for e := i%5 - 2; e < 0; e++ {
			scale /= 10
		}
		vals[i] = sign * (0.25 + float64(i%7)) * scale
	}
	return vector.MustNew(1<<20, idx, vals)
}

// TestRecordOracleRebuildsRetiredGoldens: the two golden sketches the
// record process wrote when it was New's default construction — a
// 64-word WMH budget at seed 12345, plain and quantized — are rebuilt bit
// for bit by newRecord, once the encoding carries the variant byte they
// shipped with, so the oracle the dart construction is tested against is
// the construction that shipped. The payload follows the root package's
// 6-byte sketch envelope.
func TestRecordOracleRebuildsRetiredGoldens(t *testing.T) {
	for _, tc := range []struct {
		file string
		p    Params
	}{
		{"wmh-record.golden", Params{M: 42, Seed: 12345}},
		{"wmh-record-quantize.golden", Params{M: 63, Seed: 12345, QuantizeValues: true}},
	} {
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "retired", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		data, err := newRecord(goldenVector(), tc.p).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		data[variantOffset] = byte(variantFast)
		if !bytes.Equal(data, golden[6:]) {
			t.Errorf("%s: the record oracle does not rebuild the retired payload (%d vs %d bytes)", tc.file, len(data), len(golden)-6)
		}
	}
}
