package ipsketch

import (
	"fmt"

	"repro/internal/minhash"
)

// mhBackend adapts internal/minhash — the paper's augmented unweighted
// MinHash (Algorithms 1–2). Its stored hash minima double as cardinality
// estimators, so it advertises the similarity and cardinality capabilities.
type mhBackend struct{}

func init() { register(MethodMH, mhBackend{}) }

func (mhBackend) name() string { return "MH" }

func (mhBackend) size(cfg Config) (int, error) {
	// 1.5 words per sample (32-bit hash + 64-bit value).
	s := int(float64(cfg.StorageWords) / 1.5)
	if s < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for MH", cfg.StorageWords)
	}
	return s, nil
}

func (mhBackend) params(cfg Config, size int) minhash.Params {
	return minhash.Params{M: size, Seed: cfg.Seed}
}

func (be mhBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := minhash.NewBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return builderOf[*minhash.Sketch](b.Sketch), nil
}

func (mhBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*minhash.Sketch](a, b)
	if err != nil {
		return err
	}
	return minhash.Compatible(pa, pb)
}

func (mhBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*minhash.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return minhash.Estimate(pa, pb)
}

func (mhBackend) unmarshal(data []byte) (payload, error) {
	s := new(minhash.Sketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// merge implements merger: union-min over the index-keyed sample hashes —
// exact for disjoint supports, union semantics for shared indices.
func (mhBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*minhash.Sketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := minhash.Merge(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// estimateJaccard implements similarityEstimator: the collision rate, an
// unbiased estimate of |A∩B|/|A∪B| (Fact 3).
func (mhBackend) estimateJaccard(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*minhash.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return minhash.JaccardEstimate(pa, pb)
}

// estimateSupportSize implements cardinalityEstimator via the Lemma 1
// Flajolet–Martin estimator.
func (mhBackend) estimateSupportSize(p payload) (float64, error) {
	sk, err := payloadAs[*minhash.Sketch](p)
	if err != nil {
		return 0, err
	}
	return sk.DistinctEstimate(), nil
}

func (mhBackend) estimateUnionSize(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*minhash.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return minhash.UnionEstimate(pa, pb)
}

// signature implements signatureSketcher: the per-sample minima, whose
// entries collide across sketches with probability equal to the support
// Jaccard similarity. Empty sketches yield nil.
func (mhBackend) signature(p payload) ([]uint64, error) {
	sk, err := payloadAs[*minhash.Sketch](p)
	if err != nil {
		return nil, err
	}
	return sk.Signature(), nil
}

// mhPacks is the MH columnar family. MH has no dedicated join-size
// estimator (EstimateJoinSize reduces to Estimate), so the size is one more
// operand of the key-pack kernel.
var mhPacks = packFamily[*minhash.Sketch, *minhash.Sketch, *minhash.Cols]{
	compatible: minhash.Compatible,
	newCols:    func(ref *minhash.Sketch) *minhash.Cols { return minhash.NewCols(ref.Params()) },
	operand:    func(s *minhash.Sketch) *minhash.Sketch { return s },
}

// newColumnarPack and prepareQuery implement columnarScorer.
func (mhBackend) newColumnarPack() columnarPack { return mhPacks.newPack() }

func (mhBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	return mhPacks.prepareQuery(qKey, qVal, qSq)
}
