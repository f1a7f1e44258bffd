package ipsketch

import (
	"fmt"

	"repro/internal/psample"
)

// psampleBackend adapts internal/psample — the priority / threshold
// sampling sketches of the follow-up paper "Sampling Methods for Inner
// Product Sketching" (Daliri, Freire, Musco, Santos; arXiv:2309.16157).
// One parameterized backend serves both MethodPS and MethodTS; it is the
// extensibility proof for the registry: the whole integration — batch
// APIs, serialization, median boosting, index search — is this file plus
// the enum entries.
type psampleBackend struct {
	mode    psample.Mode
	display string
}

func init() {
	register(MethodPS, psampleBackend{mode: psample.Priority, display: "PS"})
	register(MethodTS, psampleBackend{mode: psample.Threshold, display: "TS"})
}

func (be psampleBackend) name() string { return be.display }

func (be psampleBackend) size(cfg Config) (int, error) {
	// 1.5 words per budgeted sample (32-bit index hash + 64-bit value)
	// after one word for the norm (TS) or threshold rank (PS).
	s := int(float64(cfg.StorageWords-1) / 1.5)
	if s < 1 {
		return 0, fmt.Errorf("ipsketch: budget %d too small for %s", cfg.StorageWords, be.display)
	}
	return s, nil
}

func (be psampleBackend) params(cfg Config, size int) psample.Params {
	return psample.Params{K: size, Seed: cfg.Seed, Mode: be.mode}
}

func (be psampleBackend) sketch(cfg Config, size int, v Vector) (payload, error) {
	sk, err := psample.New(v, be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return sk, nil
}

type psampleBuilder struct{ b *psample.Builder }

func (p psampleBuilder) sketch(v Vector) (payload, error) {
	sk, err := p.b.Sketch(v)
	if err != nil {
		return nil, err
	}
	return sk, nil
}

func (be psampleBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := psample.NewBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return psampleBuilder{b}, nil
}

func (be psampleBackend) compatible(a, b payload) error {
	pa, pb, err := payloadPair[*psample.Sketch](a, b)
	if err != nil {
		return err
	}
	return psample.Compatible(pa, pb)
}

func (be psampleBackend) estimate(a, b payload) (float64, error) {
	pa, pb, err := payloadPair[*psample.Sketch](a, b)
	if err != nil {
		return 0, err
	}
	return psample.Estimate(pa, pb)
}

// merge implements merger: the union of the coordinated samples with
// exact threshold reconciliation (priority re-derives the union's rank
// threshold; threshold re-filters under the reconciled squared norm).
func (be psampleBackend) merge(a, b payload) (payload, error) {
	pa, pb, err := payloadPair[*psample.Sketch](a, b)
	if err != nil {
		return nil, err
	}
	s, err := psample.Merge(pa, pb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (be psampleBackend) unmarshal(data []byte) (payload, error) {
	s := new(psample.Sketch)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if s.Params().Mode != be.mode {
		return nil, fmt.Errorf("ipsketch: %s payload carries %v-mode sample", be.display, s.Params().Mode)
	}
	return s, nil
}

// newColumnarPack implements columnarScorer: three psample.Cols (key,
// value, and squared-value samples) sharing one reference sketch for
// compatibility checks; Mode is part of Params, so one pack never mixes
// priority and threshold samples.
func (be psampleBackend) newColumnarPack() columnarPack { return &psPack{} }

type psPack struct {
	ref  *psample.Sketch
	keys *psample.Cols
	vals *psample.Cols
	sqs  *psample.Cols
}

// psSketches asserts and compatibility-checks a bundle's payloads against
// ref, returning nil on any mismatch.
func psSketches(ref *psample.Sketch, ps ...payload) []*psample.Sketch {
	out := make([]*psample.Sketch, len(ps))
	for i, p := range ps {
		s, ok := p.(*psample.Sketch)
		if !ok || (ref != nil && psample.Compatible(ref, s) != nil) {
			return nil
		}
		out[i] = s
	}
	return out
}

func (p *psPack) addTable(key payload, vals, sqs []payload) bool {
	ks := psSketches(p.ref, key)
	if ks == nil {
		return false
	}
	ref := p.ref
	if ref == nil {
		ref = ks[0]
	}
	vs := psSketches(ref, vals...)
	ss := psSketches(ref, sqs...)
	if vs == nil || ss == nil {
		return false
	}
	if p.ref == nil {
		p.ref = ref
		p.keys = psample.NewCols(ref.Params())
		p.vals = psample.NewCols(ref.Params())
		p.sqs = psample.NewCols(ref.Params())
	}
	p.keys.Append(ks[0])
	for i := range vs {
		p.vals.Append(vs[i])
		p.sqs.Append(ss[i])
	}
	return true
}

// psQuery is the pre-decoded query bundle (key, value, squared value):
// each sample's inclusion probability is computed once per search here,
// not once per match per candidate. The sketches stay beside the decoded
// form for the per-pack compatibility check.
type psQuery struct {
	sk [3]*psample.Sketch
	q  [3]*psample.Query
}

func (psampleBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	qs := psSketches(nil, qKey, qVal, qSq)
	if qs == nil {
		return nil
	}
	pq := &psQuery{sk: [3]*psample.Sketch(qs)}
	for i, s := range qs {
		pq.q[i] = psample.NewQuery(s)
	}
	return pq
}

func (p *psPack) accepts(q columnarQuery) bool {
	pq, ok := q.(*psQuery)
	if !ok || p.ref == nil {
		return false
	}
	for _, s := range pq.sk {
		if psample.Compatible(p.ref, s) != nil {
			return false
		}
	}
	return true
}

func (p *psPack) scan(q columnarQuery, pl *estPlan, tLo, tHi int, tbl []float64, cLo, cHi int, col []float64) {
	qs := &q.(*psQuery).q
	var buf [3]*psample.Query
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
