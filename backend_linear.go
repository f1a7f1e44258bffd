package ipsketch

import (
	"fmt"

	"repro/internal/linear"
)

// The three linear-sketch backends (JL, CountSketch, SimHash) adapt
// internal/linear. Linear sketches have no reusable construction scratch —
// S(a) = Πa is built directly — so their builders are closures over the
// one-shot constructors; batch fan-out still parallelizes them across
// vectors.

// jlBackend is Johnson–Lindenstrauss / AMS random ±1 projection.
type jlBackend struct{}

func init() { register(MethodJL, jlBackend{}) }

func (jlBackend) name() string { return "JL" }

func (jlBackend) size(cfg Config) (int, error) {
	// One word per projection row.
	return cfg.StorageWords, nil
}

func (jlBackend) params(cfg Config, size int) linear.JLParams {
	return linear.JLParams{M: size, Seed: cfg.Seed}
}

func (be jlBackend) newBuilder(cfg Config, size int) (builder, error) {
	p := be.params(cfg, size)
	return builderOf[*linear.JLSketch](func(v Vector) (*linear.JLSketch, error) {
		return linear.NewJL(v, p)
	}), nil
}

func (jlBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*linear.JLSketch](a, b)
	if err != nil {
		return err
	}
	return linear.CompatibleJL(pa, pb)
}

func (jlBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*linear.JLSketch](a, b)
	if err != nil {
		return 0, err
	}
	return linear.EstimateJL(pa, pb)
}

// merge implements merger: row-wise addition, S(a)+S(b) = S(a+b).
func (jlBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*linear.JLSketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := linear.MergeJL(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (jlBackend) unmarshal(data []byte) (payload, error) {
	s := new(linear.JLSketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// csBackend is CountSketch with median-of-Reps repetitions.
type csBackend struct{}

func init() { register(MethodCountSketch, csBackend{}) }

func (csBackend) name() string { return "CS" }

func (csBackend) size(cfg Config) (int, error) {
	// One word per bucket, Reps repetitions.
	reps := cfg.countSketchReps()
	b := cfg.StorageWords / reps
	if b < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for CountSketch with %d reps", cfg.StorageWords, reps)
	}
	return b, nil
}

func (csBackend) params(cfg Config, size int) linear.CSParams {
	return linear.CSParams{Buckets: size, Reps: cfg.countSketchReps(), Seed: cfg.Seed}
}

func (be csBackend) newBuilder(cfg Config, size int) (builder, error) {
	p := be.params(cfg, size)
	return builderOf[*linear.CSSketch](func(v Vector) (*linear.CSSketch, error) {
		return linear.NewCountSketch(v, p)
	}), nil
}

func (csBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*linear.CSSketch](a, b)
	if err != nil {
		return err
	}
	return linear.CompatibleCS(pa, pb)
}

func (csBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*linear.CSSketch](a, b)
	if err != nil {
		return 0, err
	}
	return linear.EstimateCountSketch(pa, pb)
}

// merge implements merger: counter-wise addition, S(a)+S(b) = S(a+b).
// SimHash deliberately has no merge: quantizing to sign bits destroys
// additivity, so simHashBackend stays outside the merger capability and
// Sketch.Merge reports ErrNotMergeable for it.
func (csBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*linear.CSSketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := linear.MergeCS(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (csBackend) unmarshal(data []byte) (payload, error) {
	s := new(linear.CSSketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// simHashBackend is the 1-bit quantized random projection.
type simHashBackend struct{}

func init() { register(MethodSimHash, simHashBackend{}) }

func (simHashBackend) name() string { return "SimHash" }

func (simHashBackend) size(cfg Config) (int, error) {
	// 64 sign bits per word after one word for the stored norm.
	bits := (cfg.StorageWords - 1) * 64
	if bits < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for SimHash", cfg.StorageWords)
	}
	return bits, nil
}

func (simHashBackend) params(cfg Config, size int) linear.SimHashParams {
	return linear.SimHashParams{Bits: size, Seed: cfg.Seed}
}

func (be simHashBackend) newBuilder(cfg Config, size int) (builder, error) {
	p := be.params(cfg, size)
	return builderOf[*linear.SimHashSketch](func(v Vector) (*linear.SimHashSketch, error) {
		return linear.NewSimHash(v, p)
	}), nil
}

func (simHashBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*linear.SimHashSketch](a, b)
	if err != nil {
		return err
	}
	return linear.CompatibleSimHash(pa, pb)
}

func (simHashBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*linear.SimHashSketch](a, b)
	if err != nil {
		return 0, err
	}
	return linear.EstimateSimHash(pa, pb)
}

func (simHashBackend) unmarshal(data []byte) (payload, error) {
	s := new(linear.SimHashSketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}
