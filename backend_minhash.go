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

func (be mhBackend) sketch(cfg Config, size int, v Vector) (payload, error) {
	sk, err := minhash.New(v, be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return sk, nil
}

type mhBuilder struct{ b *minhash.Builder }

func (m mhBuilder) sketch(v Vector) (payload, error) {
	sk, err := m.b.Sketch(v)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

func (be mhBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := minhash.NewBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return mhBuilder{b}, nil
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

// chunkInvariant marks that MH's union-min merge reassembles the serial
// sketch bitwise for every shard count (hashes are index-keyed and the
// sketch carries no aggregate statistics).
func (mhBackend) chunkInvariant() {}

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

// newColumnarPack implements columnarScorer: three minhash.Cols (key,
// value, and squared-value sketches) sharing one reference sketch for
// compatibility checks.
func (mhBackend) newColumnarPack() columnarPack { return &mhPack{} }

type mhPack struct {
	ref  *minhash.Sketch
	keys *minhash.Cols
	vals *minhash.Cols
	sqs  *minhash.Cols
}

// mhSketches asserts and compatibility-checks a bundle's payloads against
// ref, returning nil on any mismatch (the bundle then stays decoded).
func mhSketches(ref *minhash.Sketch, ps ...payload) []*minhash.Sketch {
	out := make([]*minhash.Sketch, len(ps))
	for i, p := range ps {
		s, ok := p.(*minhash.Sketch)
		if !ok || (ref != nil && minhash.Compatible(ref, s) != nil) {
			return nil
		}
		out[i] = s
	}
	return out
}

func (p *mhPack) addTable(key payload, vals, sqs []payload) bool {
	ks := mhSketches(p.ref, key)
	if ks == nil {
		return false
	}
	ref := p.ref
	if ref == nil {
		ref = ks[0]
	}
	vs := mhSketches(ref, vals...)
	ss := mhSketches(ref, sqs...)
	if vs == nil || ss == nil {
		return false
	}
	if p.ref == nil {
		// Pin the reference only once a bundle actually packs, so a
		// rejected first bundle cannot poison the pack's parameters.
		p.ref = ref
		p.keys = minhash.NewCols(ref.Params())
		p.vals = minhash.NewCols(ref.Params())
		p.sqs = minhash.NewCols(ref.Params())
	}
	p.keys.Append(ks[0])
	for i := range vs {
		p.vals.Append(vs[i])
		p.sqs.Append(ss[i])
	}
	return true
}

// mhQuery is the pre-decoded query bundle: key, value, squared value.
type mhQuery [3]*minhash.Sketch

func (mhBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	qs := mhSketches(nil, qKey, qVal, qSq)
	if qs == nil {
		return nil
	}
	return (*mhQuery)(qs)
}

func (p *mhPack) accepts(q columnarQuery) bool {
	qs, ok := q.(*mhQuery)
	if !ok || p.ref == nil {
		return false
	}
	for _, s := range qs {
		if minhash.Compatible(p.ref, s) != nil {
			return false
		}
	}
	return true
}

// scan: MH has no dedicated join-size estimator (EstimateJoinSize reduces
// to Estimate), so the size is one more operand of the key-pack kernel.
func (p *mhPack) scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64) {
	qs := (*[3]*minhash.Sketch)(q.(*mhQuery))
	var buf [3]*minhash.Sketch
	if sel := &pl.key; sel.n > 0 {
		p.keys.Scan(pick(sel, qs, &buf), tLo, tHi, tbl, pl.tblStride, sel.off[:sel.n])
	}
	if sel := &pl.val; sel.n > 0 {
		p.vals.Scan(pick(sel, qs, &buf), cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
	if sel := &pl.sq; sel.n > 0 {
		p.sqs.Scan(pick(sel, qs, &buf), cLo, cHi, col, pl.colStride, sel.off[:sel.n])
	}
}
