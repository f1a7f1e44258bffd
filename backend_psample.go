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

func (be psampleBackend) newBuilder(cfg Config, size int) (builder, error) {
	b, err := psample.NewBuilder(be.params(cfg, size))
	if err != nil {
		return nil, err
	}
	return builderOf[*psample.Sketch](b.Sketch), nil
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

// psPacks is the PS/TS columnar family; Mode is part of Params, so one
// pack never mixes priority and threshold samples. The query operand is
// psample.Query: each sample's inclusion probability is computed once per
// search, not once per match per candidate.
var psPacks = packFamily[*psample.Sketch, *psample.Query, *psample.Cols]{
	compatible: psample.Compatible,
	newCols:    func(ref *psample.Sketch) *psample.Cols { return psample.NewCols(ref.Params()) },
	operand:    psample.NewQuery,
}

// newColumnarPack and prepareQuery implement columnarScorer.
func (psampleBackend) newColumnarPack() columnarPack { return psPacks.newPack() }

func (psampleBackend) prepareQuery(qKey, qVal, qSq payload) columnarQuery {
	return psPacks.prepareQuery(qKey, qVal, qSq)
}
