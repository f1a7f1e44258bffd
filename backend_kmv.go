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

func (be kmvBackend) sketch(cfg Config, size int, v Vector) (payload, error) {
	sk, err := kmv.New(v, be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return sk, nil
}

type kmvBuilder struct{ b *kmv.BatchBuilder }

func (k kmvBuilder) sketch(v Vector) (payload, error) {
	sk, err := k.b.Sketch(v)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

func (be kmvBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := kmv.NewBatchBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return kmvBuilder{b}, nil
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

// chunkInvariant marks that KMV's bottom-k union merge reassembles the
// serial sketch bitwise for every shard count (hashes are index-keyed;
// the support counter is an exact integer sum).
func (kmvBackend) chunkInvariant() {}

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

// newColumnarPack implements columnarScorer: three kmv.Cols (key, value,
// and squared-value sketches) sharing one reference sketch for
// compatibility checks. KMV is the family that gains the most from the
// packed kernel — the decoded estimator allocates union and matched
// slices for every pair, the kernel allocates nothing.
func (kmvBackend) newColumnarPack() columnarPack { return &kmvPack{} }

type kmvPack struct {
	ref  *kmv.Sketch
	keys *kmv.Cols
	vals *kmv.Cols
	sqs  *kmv.Cols
}

// kmvSketches asserts and compatibility-checks a bundle's payloads
// against ref, returning nil on any mismatch.
func kmvSketches(ref *kmv.Sketch, ps ...payload) []*kmv.Sketch {
	out := make([]*kmv.Sketch, len(ps))
	for i, p := range ps {
		s, ok := p.(*kmv.Sketch)
		if !ok || (ref != nil && kmv.Compatible(ref, s) != nil) {
			return nil
		}
		out[i] = s
	}
	return out
}

func (p *kmvPack) addTable(key payload, vals, sqs []payload) bool {
	ks := kmvSketches(p.ref, key)
	if ks == nil {
		return false
	}
	ref := p.ref
	if ref == nil {
		ref = ks[0]
	}
	vs := kmvSketches(ref, vals...)
	ss := kmvSketches(ref, sqs...)
	if vs == nil || ss == nil {
		return false
	}
	if p.ref == nil {
		p.ref = ref
		p.keys = kmv.NewCols(ref.Params())
		p.vals = kmv.NewCols(ref.Params())
		p.sqs = kmv.NewCols(ref.Params())
	}
	p.keys.Append(ks[0])
	for i := range vs {
		p.vals.Append(vs[i])
		p.sqs.Append(ss[i])
	}
	return true
}

// kmvQuery is the pre-decoded query bundle: key, value, squared value.
type kmvQuery [3]*kmv.Sketch

func (kmvBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	qs := kmvSketches(nil, qKey, qVal, qSq)
	if qs == nil {
		return nil
	}
	return (*kmvQuery)(qs)
}

func (p *kmvPack) accepts(q columnarQuery) bool {
	qs, ok := q.(*kmvQuery)
	if !ok || p.ref == nil {
		return false
	}
	for _, s := range qs {
		if kmv.Compatible(p.ref, s) != nil {
			return false
		}
	}
	return true
}

// scan: KMV registers joinSizeEstimator, so the size slot carries the
// threshold |A∩B| estimate, not the inner-product reduction — it is the
// key pack's first selected operand whenever the plan wants it.
func (p *kmvPack) scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64) {
	qs := (*[3]*kmv.Sketch)(q.(*kmvQuery))
	var buf [3]*kmv.Sketch
	if sel := &pl.key; sel.n > 0 {
		ops, offs := pick(sel, qs, &buf), sel.off[:sel.n]
		if pl.slot[slotSize] >= 0 {
			p.keys.ScanJoinSize(ops[0], tLo, tHi, tbl, pl.tblStride, offs[0])
			ops, offs = ops[1:], offs[1:]
		}
		if len(ops) > 0 {
			p.keys.Scan(ops, tLo, tHi, tbl, pl.tblStride, offs)
		}
	}
	if sel := &pl.val; sel.n > 0 {
		p.vals.Scan(pick(sel, qs, &buf), cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
	if sel := &pl.sq; sel.n > 0 {
		p.sqs.Scan(pick(sel, qs, &buf), cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
}
