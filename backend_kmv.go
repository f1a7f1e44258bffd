package ipsketch

import (
	"fmt"

	"repro/internal/kmv"
)

// kmvBackend adapts internal/kmv — the K-Minimum-Values bottom-k sketch.
// Its coordinated sample has a dedicated join-size estimator that ignores
// values entirely, so it advertises the joinSizeEstimator capability on
// top of similarity and cardinalities.
type kmvBackend struct{}

func init() { register(MethodKMV, kmvBackend{}) }

func (kmvBackend) name() string { return "KMV" }

func (kmvBackend) size(cfg Config) (int, error) {
	// 1.5 words per retained sample (32-bit hash + 64-bit value).
	s := int(float64(cfg.StorageWords) / 1.5)
	if s < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for KMV", cfg.StorageWords)
	}
	return s, nil
}

func (kmvBackend) params(cfg Config, size int) kmv.Params {
	return kmv.Params{K: size, Seed: cfg.Seed}
}

func (be kmvBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := kmv.NewBatchBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return builderOf[*kmv.Sketch](b.Sketch), nil
}

func (kmvBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return err
	}
	return kmv.Compatible(pa, pb)
}

func (kmvBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return kmv.Estimate(pa, pb)
}

func (kmvBackend) unmarshal(data []byte) (payload, error) {
	s := new(kmv.Sketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// merge implements merger: the deduplicated union of the retained
// bottom-k pairs, truncated to the k smallest — exact for disjoint
// supports, with the merged support size an upper bound under unobserved
// overlap.
func (kmvBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := kmv.Merge(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// estimateJoinSize implements joinSizeEstimator: the threshold estimate of
// |A∩B| from matched hashes alone, exact under full retention.
func (kmvBackend) estimateJoinSize(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return kmv.JoinSizeEstimate(pa, pb)
}

// estimateJaccard implements similarityEstimator as the ratio of the
// threshold intersection and union estimates, clamped to [0, 1].
func (kmvBackend) estimateJaccard(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	inter, err := kmv.JoinSizeEstimate(pa, pb)
	if err != nil {
		return 0, err
	}
	union, err := kmv.UnionEstimate(pa, pb)
	if err != nil {
		return 0, err
	}
	if union <= 0 {
		return 0, nil
	}
	j := inter / union
	if j > 1 {
		j = 1
	}
	return j, nil
}

func (kmvBackend) estimateSupportSize(p payload) (float64, error) {
	sk, err := payloadAs[*kmv.Sketch](p)
	if err != nil {
		return 0, err
	}
	return sk.DistinctEstimate(), nil
}

func (kmvBackend) estimateUnionSize(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*kmv.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return kmv.UnionEstimate(pa, pb)
}

// kmvPacks is the KMV columnar family — the one that gains the most from
// the packed kernel: the decoded estimator allocates union and matched
// slices for every pair, the kernel allocates nothing. KMV registers
// joinSizeEstimator, so the size slot carries the threshold |A∩B|
// estimate, not the inner-product reduction.
var kmvPacks = packFamily[*kmv.Sketch, *kmv.Sketch, *kmv.Cols]{
	compatible:   kmv.Compatible,
	newCols:      func(ref *kmv.Sketch) *kmv.Cols { return kmv.NewCols(ref.Params()) },
	operand:      func(s *kmv.Sketch) *kmv.Sketch { return s },
	scanJoinSize: (*kmv.Cols).ScanJoinSize,
}

// newColumnarPack and prepareQuery implement columnarScorer.
func (kmvBackend) newColumnarPack() columnarPack { return kmvPacks.newPack() }

func (kmvBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	return kmvPacks.prepareQuery(qKey, qVal, qSq)
}
