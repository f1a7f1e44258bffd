package ipsketch

import (
	"fmt"

	"repro/internal/linear"
)

// The three linear-sketch descriptors (JL, CountSketch, SimHash) adapt
// internal/linear. Linear sketches have no reusable construction scratch —
// S(a) = Πa is built directly — so their builders wrap the one-shot
// constructors (oneShot).

// jlBackend is Johnson–Lindenstrauss / AMS random ±1 projection.
var jlBackend = &backend{
	name: "JL",
	// One word per projection row.
	size: func(cfg Config) (int, error) { return cfg.StorageWords, nil },
	newBuilder: func(cfg Config, size int) (builder, error) {
		return oneShot(linear.NewJL, linear.JLParams{M: size, Seed: cfg.Seed})
	},
	compatible: check(linear.CompatibleJL),
	estimate:   pair(linear.EstimateJL),
	unmarshal:  decode[linear.JLSketch],
	// Row-wise addition, S(a)+S(b) = S(a+b).
	merge: merged(linear.MergeJL),
}

// csBackend is CountSketch with the paper's median of linear.DefaultReps
// repetitions.
var csBackend = &backend{
	name: "CS",
	size: func(cfg Config) (int, error) {
		// One word per bucket, DefaultReps repetitions.
		b := cfg.StorageWords / linear.DefaultReps
		if b < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for CountSketch with %d reps", cfg.StorageWords, linear.DefaultReps)
		}
		return b, nil
	},
	newBuilder: func(cfg Config, size int) (builder, error) {
		return oneShot(linear.NewCountSketch, linear.CSParams{Buckets: size, Reps: linear.DefaultReps, Seed: cfg.Seed})
	},
	compatible: check(linear.CompatibleCS),
	estimate:   pair(linear.EstimateCountSketch),
	unmarshal:  decode[linear.CSSketch],
	// Counter-wise addition, S(a)+S(b) = S(a+b).
	merge: merged(linear.MergeCS),
}

// simHashBackend is the 1-bit quantized random projection. It deliberately
// has no merge: quantizing to sign bits destroys additivity, so
// Sketch.Merge reports ErrNotMergeable for it.
var simHashBackend = &backend{
	name: "SimHash",
	size: func(cfg Config) (int, error) {
		// 64 sign bits per word after one word for the stored norm.
		bits := (cfg.StorageWords - 1) * 64
		if bits < 1 {
			return 0, fmt.Errorf("ipsketch: budget %d too small for SimHash", cfg.StorageWords)
		}
		return bits, nil
	},
	newBuilder: func(cfg Config, size int) (builder, error) {
		return oneShot(linear.NewSimHash, linear.SimHashParams{Bits: size, Seed: cfg.Seed})
	},
	compatible: check(linear.CompatibleSimHash),
	estimate:   pair(linear.EstimateSimHash),
	unmarshal:  decode[linear.SimHashSketch],
}
