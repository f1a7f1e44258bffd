package ipsketch

import (
	"fmt"

	"repro/internal/psample"
)

// psampleBackend adapts internal/psample — the priority / threshold
// sampling sketches of the follow-up paper "Sampling Methods for Inner
// Product Sketching" (Daliri, Freire, Musco, Santos; arXiv:2309.16157).
// One parameterized descriptor serves both MethodPS and MethodTS; it is
// the extensibility proof for the registry: the whole integration — batch
// APIs, serialization, median boosting, index search — is this file plus
// the enum entries.
func psampleBackend(mode psample.Mode, name string) *backend {
	return &backend{
		name: name,
		size: func(cfg Config) (int, error) {
			// 1.5 words per budgeted sample (32-bit index hash + 64-bit
			// value) after one word for the norm (TS) or threshold rank (PS).
			s := int(float64(cfg.StorageWords-1) / 1.5)
			if s < 1 {
				return 0, fmt.Errorf("ipsketch: budget %d too small for %s", cfg.StorageWords, name)
			}
			return s, nil
		},
		newBuilder: func(cfg Config, size int) (builder, error) {
			return builds(psample.NewBuilder(psample.Params{K: size, Seed: cfg.Seed, Mode: mode}))
		},
		compatible: check(psample.Compatible),
		estimate:   pair(psample.Estimate),
		unmarshal: func(data []byte) (payload, error) {
			s := new(psample.Sketch)
			if err := s.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			if s.Params().Mode != mode {
				return nil, fmt.Errorf("ipsketch: %s payload carries %v-mode sample", name, s.Params().Mode)
			}
			return s, nil
		},
		// The union of the coordinated samples with exact threshold
		// reconciliation (priority re-derives the union's rank threshold;
		// threshold re-filters under the reconciled squared norm).
		merge: merged(psample.Merge),
		// Mode is part of Params, so one index (and so one pack) never
		// mixes priority and threshold samples.
		packs: &packFamily[psample.Sketch, *psample.Sketch, uint64]{
			score: psample.Score,
			view:  (*psample.Sketch).View,
		},
	}
}
