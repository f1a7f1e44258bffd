package ipsketch

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/hashing"
)

// lshBenchParams band at Bands×Rows = 16×2 = 32 signature entries with
// an S-curve threshold of (1/16)^(1/2) = 0.25: selective enough that the
// candidate fraction stays well under 1, permissive enough that the
// true top-10 by join size is reachable. The probe sweep then trades
// recall for work: probing p of 16 bands retrieves with probability
// 1−(1−J²)ᵖ.
var lshBenchParams = LSHParams{Bands: 16, Rows: 2}

// lshRecallAt reports |got ∩ want| / |want| over (table, column) keys.
func lshRecallAt(got, want []SearchResult) float64 {
	if len(want) == 0 {
		return 1
	}
	wantSet := searchKeySet(want)
	hit := 0
	for _, r := range got {
		if wantSet[r.Table+"\x00"+r.Column] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// lshBenchQueries builds nQ extra query sketches against the fixture's
// configuration, each supported on a different seeded random subset of
// the fixture's hot key range. A single query's probe sweep is a step
// function (its matching bands are fixed), so recall-vs-probes is only
// meaningful averaged over queries with independent band luck.
func lshBenchQueries(t testing.TB, cfg Config, nQ int, seed uint64) []*TableSketch {
	t.Helper()
	ts, err := NewTableSketcher(cfg, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(seed)
	out := make([]*TableSketch, 0, nQ)
	for q := 0; q < nQ; q++ {
		var keys []uint64
		var vals []float64
		for k := 0; k < 200; k++ {
			// 40–90% subsets of the fixture's 0..199 hot range.
			if rng.Float64() < 0.4+0.5*float64(q)/float64(nQ) {
				keys = append(keys, uint64(k))
				vals = append(vals, rng.Norm())
			}
		}
		tab, err := NewTable(fmt.Sprintf("bench-q%d", q), keys, map[string][]float64{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sk)
	}
	return out
}

// BenchmarkSearchLSH sweeps the probe budget over the banded index and
// reports, per (family, probes) point: search throughput, recall@10
// against the exact full scan, and cand_frac — the fraction of the
// index's columns the banded stage admitted for rescoring. Recall and
// cand_frac are averaged over a seeded panel of queries (one query's
// sweep is a step function of its own band collisions); the timing loop
// uses the fixture's primary query. cand_frac well below 1 is the
// sublinear-candidates claim, recall@10 climbing to 1 with probes is
// the S-curve trade.
func BenchmarkSearchLSH(b *testing.B) {
	for _, fam := range lshFamilies {
		fam := fam
		b.Run(fam.name, func(b *testing.B) {
			qSk, ix := buildColumnarFixture(b, fam.cfg, 9000+fam.cfg.Seed, 128)
			if ix.BuildColumnar() == 0 {
				b.Fatal("nothing packed")
			}
			panel := append([]*TableSketch{qSk}, lshBenchQueries(b, fam.cfg, 11, 77+fam.cfg.Seed)...)
			fulls := make([][]SearchResult, len(panel))
			totals := make([]float64, len(panel))
			for i, sk := range panel {
				full, st, err := ix.Search(Query{Sketch: sk, Column: "v", RankBy: RankByJoinSize, K: 10})
				if err != nil {
					b.Fatal(err)
				}
				fulls[i], totals[i] = full, float64(st.Candidates)
			}
			if _, err := ix.BuildLSH(lshBenchParams); err != nil {
				b.Fatal(err)
			}
			for _, probes := range []int{1, 2, 4, 8, 16} {
				probes := probes
				b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
					var recall, candFrac float64
					for i, sk := range panel {
						got, st, err := ix.Search(Query{Sketch: sk, Column: "v", RankBy: RankByJoinSize, K: 10, LSH: true, Probes: probes})
						if err != nil {
							b.Fatal(err)
						}
						recall += lshRecallAt(got, fulls[i])
						candFrac += float64(st.Candidates) / totals[i]
					}
					recall /= float64(len(panel))
					candFrac /= float64(len(panel))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10, LSH: true, Probes: probes}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "searches/s")
					b.ReportMetric(recall, "recall@10")
					b.ReportMetric(candFrac, "cand_frac")
				})
			}
		})
	}
}

// TestLSHRecallSmoke is the CI gate for the banded index: at full probes
// the selective banding must reach recall@10 = 1.0 against the exact
// scan while admitting strictly fewer columns than the full scan scores
// (the sublinear-candidates contract), and the aggressive strongLSH
// banding must stay bit-exact end to end. Opt-in via
// IPSKETCH_BENCH_SMOKE=1 like the other perf gates: statistical
// assertions over a large fixture do not belong in the default run.
func TestLSHRecallSmoke(t *testing.T) {
	if os.Getenv("IPSKETCH_BENCH_SMOKE") == "" {
		t.Skip("set IPSKETCH_BENCH_SMOKE=1 to run the lsh recall gate")
	}
	for _, fam := range lshFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			qSk, ix := buildColumnarFixture(t, fam.cfg, 9000+fam.cfg.Seed, 128)
			if ix.BuildColumnar() == 0 {
				t.Fatal("nothing packed")
			}
			full, fStats, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.BuildLSH(lshBenchParams); err != nil {
				t.Fatal(err)
			}
			got, st, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10, LSH: true})
			if err != nil {
				t.Fatal(err)
			}
			if r := lshRecallAt(got, full); r != 1 {
				t.Errorf("recall@10 = %.2f at full probes, want 1.0", r)
			}
			if st.Candidates >= fStats.Candidates {
				t.Errorf("banded stage rescored %d of %d columns — not sublinear",
					st.Candidates, fStats.Candidates)
			}
			t.Logf("%s: rescored %d of %d columns (%.0f%%), recall@10 = 1.0",
				fam.name, st.Candidates, fStats.Candidates,
				100*float64(st.Candidates)/float64(fStats.Candidates))

			// Aggressive banding: recall 1 with bit-exact ranking.
			if _, err := ix.BuildLSH(strongLSH); err != nil {
				t.Fatal(err)
			}
			exact, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10, LSH: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(exact) != len(full) {
				t.Fatalf("strongLSH returned %d results, full scan %d", len(exact), len(full))
			}
			for i := range exact {
				if !resultsIdentical(exact[i], full[i]) {
					t.Fatalf("rank %d differs: lsh %+v vs full %+v", i, exact[i], full[i])
				}
			}
		})
	}
}
