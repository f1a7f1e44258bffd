// Package hashing provides the random primitives shared by every sketch in
// this repository: a small deterministic PRNG (splitmix64) with its Mix /
// Extend key-derivation chain, the dart process behind the Weighted
// MinHash construction, and the worker-pool helpers.
//
// Everything here is deterministic given a seed. Two sketches built from the
// same seed on different machines (or different processes) produce bitwise
// identical hash values, which is what makes coordinated sampling between
// independently computed sketches possible.
package hashing

import "math"

// SplitMix64 is a tiny, fast, well-distributed PRNG
// (Steele, Lea, Flood: "Fast Splittable Pseudorandom Number Generators").
// It is used both directly as a stream generator and as a mixing/finalizing
// function to derive independent sub-streams from a seed.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// golden is the 64-bit golden-ratio increment used by splitmix64.
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next pseudorandom value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// mix64 is the splitmix64 output finalizer: a bijective mixing of z.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mixInit is the Mix chaining seed (pi fractional bits: arbitrary non-zero).
const mixInit = uint64(0x243F6A8885A308D3)

// Mix hashes an arbitrary tuple of 64-bit words into a single well-mixed
// word. It is used to derive independent stream seeds, e.g.
// Mix(seed, sampleIndex, blockIndex). Mix is not 2-wise independent; it is a
// key-derivation convenience, not a hash family with guarantees.
func Mix(parts ...uint64) uint64 {
	h := mixInit
	for _, p := range parts {
		h = Extend(h, p)
	}
	return h
}

// Extend continues a Mix chain with one more word:
//
//	Mix(a, b, c) == Extend(Extend(Mix(a), b), c)
//
// Hot loops use it to hoist a shared key prefix out of an inner loop —
// e.g. block-major sketch construction derives a per-sample prefix once and
// extends it per block, instead of re-mixing the full tuple per pair.
func Extend(h, p uint64) uint64 {
	return mix64(h + golden + p)
}

// UnitFromBits maps a 64-bit word to a float in the open interval (0,1).
func UnitFromBits(u uint64) float64 {
	return (float64(u>>11) + 0.5) * (1.0 / (1 << 53))
}

// Float64 returns a uniform float64 in the open interval (0, 1).
// It never returns 0 or 1, which keeps logarithms and divisions safe.
func (s *SplitMix64) Float64() float64 {
	// 52 random mantissa bits, +1 to exclude zero: value in (0, 1].
	// Then reflect to (0,1) by using 2^-53 scale on [1, 2^53-? ]:
	// (v+1) / (2^53+1) lies in (0,1) strictly.
	v := s.Uint64() >> 11 // 53 bits
	return (float64(v) + 0.5) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's method with a
// rejection loop to remove modulo bias. It panics if n == 0.
func (s *SplitMix64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hashing: Uint64n called with n == 0")
	}
	// Rejection sampling on the top of the range to avoid bias.
	threshold := -n % n // (2^64 - n) mod n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Norm returns a standard normal variate via the Box–Muller transform.
// We implement it here rather than depending on math/rand so that streams
// remain stable across Go releases.
func (s *SplitMix64) Norm() float64 {
	u1 := s.Float64()
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2)
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle[T any](s *SplitMix64, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
