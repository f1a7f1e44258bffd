package experiments

import (
	"testing"

	ipsketch "repro"
	"repro/internal/datagen"
	"repro/internal/hashing"
)

// TestHeadlineWMHBeatsLinearSketches is the paper's headline as a gate: on
// Figure 4's sparse, low-overlap synthetic pairs, at equal storage, WMH's
// mean scaled error is at most half of JL's and at most half of
// CountSketch's. It holds for WMH at the experiments' L = DefaultL(dim)
// and at the L = 2⁵⁰ sketchd serves, in every cell of overlaps 1 % and
// 5 % × seeds 1–5 × storage 100 and 400 words, each averaged over five
// trials drawn as RunFigure4 draws them.
func TestHeadlineWMHBeatsLinearSketches(t *testing.T) {
	const trials = 5
	columns := []struct {
		name string
		cfg  ipsketch.Config
	}{
		{"WMH", ipsketch.Config{Method: ipsketch.MethodWMH}},
		{"WMH served", ipsketch.Config{Method: ipsketch.MethodWMH, L: 1 << 50}},
		{"JL", ipsketch.Config{Method: ipsketch.MethodJL}},
		{"CountSketch", ipsketch.Config{Method: ipsketch.MethodCountSketch}},
	}
	overlaps := []float64{0.01, 0.05}
	storages := []int{100, 400}
	worst := 0.0 // the largest WMH/linear error ratio seen
	for seed := uint64(1); seed <= 5; seed++ {
		for oi, overlap := range overlaps {
			mean := make([][]float64, len(storages))
			for si := range mean {
				mean[si] = make([]float64, len(columns))
			}
			for trial := 0; trial < trials; trial++ {
				a, b, err := datagen.SyntheticPair(datagen.PaperPairParams(overlap, hashing.Mix(seed, uint64(oi), uint64(trial))))
				if err != nil {
					t.Fatal(err)
				}
				for si, storage := range storages {
					for ci, col := range columns {
						cfg := col.cfg
						cfg.StorageWords = storage
						cfg.Seed = hashing.Mix(seed, uint64(oi), uint64(trial), uint64(si))
						s, err := ipsketch.NewSketcher(cfg)
						if err != nil {
							t.Fatal(err)
						}
						sa, err := s.Sketch(a)
						if err != nil {
							t.Fatal(err)
						}
						sb, err := s.Sketch(b)
						if err != nil {
							t.Fatal(err)
						}
						e, err := PairScaledError(sa, sb, a, b)
						if err != nil {
							t.Fatal(err)
						}
						mean[si][ci] += e / trials
					}
				}
			}
			for si, storage := range storages {
				m := mean[si]
				for _, wmh := range []int{0, 1} {
					for _, lin := range []int{2, 3} {
						worst = max(worst, m[wmh]/m[lin])
						if m[wmh] > m[lin]/2 {
							t.Errorf("seed %d, overlap %v, storage %d: %s error %.5f is more than half of %s's %.5f",
								seed, overlap, storage, columns[wmh].name, m[wmh], columns[lin].name, m[lin])
						}
					}
				}
			}
		}
	}
	t.Logf("largest WMH/linear mean-error ratio over the grid: %.3f", worst)
}
