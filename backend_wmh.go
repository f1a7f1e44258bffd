package ipsketch

import (
	"fmt"

	"repro/internal/wmh"
)

// wmhBackend adapts internal/wmh — the paper's Weighted MinHash sketch
// (Algorithms 3–5) — to the backend registry. It is the only backend that
// estimates its own error bound (Theorem 2 is data-driven through the
// stored norms) and the only one honoring Config.Quantize.
type wmhBackend struct{}

func init() { register(MethodWMH, wmhBackend{}) }

func (wmhBackend) name() string { return "WMH" }

func (wmhBackend) size(cfg Config) (int, error) {
	// 1.5 words per sample after one word for the stored norm; Quantize
	// shrinks values to 32 bits (1 word per sample).
	perSample := 1.5
	if cfg.Quantize {
		perSample = 1.0
	}
	s := int(float64(cfg.StorageWords-1) / perSample)
	if s < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for WMH", cfg.StorageWords)
	}
	return s, nil
}

func (wmhBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := wmh.NewBuilder(cfg.wmhParams(size))
	if err != nil {
		return nil, err
	}
	return builderOf[*wmh.Sketch](b.Sketch), nil
}

func (wmhBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*wmh.Sketch](a, b)
	if err != nil {
		return err
	}
	return wmh.Compatible(pa, pb)
}

func (wmhBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*wmh.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return wmh.Estimate(pa, pb)
}

func (wmhBackend) unmarshal(data []byte) (payload, error) {
	s := new(wmh.Sketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// merge implements merger: union-min over the per-sample record-process
// minima. Partials must share the parent's normalization (sketchShards);
// wmh.Merge rejects unequal stored norms.
func (wmhBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*wmh.Sketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := wmh.Merge(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sketchShards implements shardSketcher: the vector is rounded once and
// its blocks partitioned, so every partial carries the parent's
// normalization and the merged result is bitwise the direct sketch.
func (wmhBackend) sketchShards(cfg Config, size int, v Vector, n int) ([]payload, error) {
	sks, err := wmh.Shards(v, cfg.wmhParams(size), n)
	if err != nil {
		return nil, err
	}
	out := make([]payload, len(sks))
	for i, sk := range sks {
		out[i] = sk
	}
	return out, nil
}

// estimateWithBound implements errorBounder: the Theorem 2 error scale
// max(‖a_I‖‖b‖, ‖a‖‖b_I‖)/√m estimated from the sketches themselves.
func (wmhBackend) estimateWithBound(a, b payload) (float64, float64, error) {
	pa, pb, err := payloadPair[*wmh.Sketch](a, b)
	if err != nil {
		return 0, 0, err
	}
	estimate, err := wmh.Estimate(pa, pb)
	if err != nil {
		return 0, 0, err
	}
	bound, err := wmh.EstimateErrorBound(pa, pb)
	if err != nil {
		return 0, 0, err
	}
	return estimate, bound.PerSqrtM, nil
}

// estimateJaccard implements similarityEstimator: the weighted Jaccard
// similarity Σmin(ã²,b̃²)/Σmax(ã²,b̃²) of the squared normalized vectors.
func (wmhBackend) estimateJaccard(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*wmh.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return wmh.WeightedJaccardEstimate(pa, pb)
}

// signature implements signatureSketcher: the per-sample minima (float
// bits), whose entries collide across sketches with probability equal to
// the weighted Jaccard similarity. Empty sketches yield nil.
func (wmhBackend) signature(p payload) ([]uint64, error) {
	sk, err := payloadAs[*wmh.Sketch](p)
	if err != nil {
		return nil, err
	}
	return sk.Signature(), nil
}

// wmhPacks is the WMH columnar family: params, resolved L, and
// construction variant all pin through wmh.Compatible, so dart and
// record-process sketches never mix in one pack.
var wmhPacks = packFamily[*wmh.Sketch, *wmh.Sketch, *wmh.Cols]{
	compatible: wmh.Compatible,
	newCols:    wmh.NewCols,
	operand:    func(s *wmh.Sketch) *wmh.Sketch { return s },
}

// newColumnarPack and prepareQuery implement columnarScorer.
func (wmhBackend) newColumnarPack() columnarPack { return wmhPacks.newPack() }

func (wmhBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	return wmhPacks.prepareQuery(qKey, qVal, qSq)
}

// quantizable marks that Config.Quantize is honored.
func (wmhBackend) quantizable() {}

// dartHashable marks that Config.Dart is honored.
func (wmhBackend) dartHashable() {}
