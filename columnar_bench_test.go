package ipsketch

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// procsSweep is the GOMAXPROCS ladder 1, 2, 4, … up to every core.
func procsSweep() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	return append(out, max)
}

// scanRanks is BenchmarkScan's rank dimension: the three rank phases of
// the packed search — one, two, or all six estimates per candidate.
var scanRanks = []struct {
	name string
	by   RankBy
}{
	{"join_size", RankByJoinSize},
	{"abs_ip", RankByAbsInnerProduct},
	{"abs_corr", RankByAbsCorrelation},
}

// BenchmarkScan measures search scan throughput at k = 10 — candidate
// columns scored per second — for every packable family, decoded vs
// columnar, by ranking statistic (the packed rank phase computes only
// what the ranking reads; the decoded path always computes all six),
// across the GOMAXPROCS ladder.
func BenchmarkScan(b *testing.B) {
	for _, fam := range columnarFamilies {
		b.Run(fam.name, func(b *testing.B) {
			qSk, ix := buildColumnarFixture(b, fam.cfg, 7000+fam.cfg.Seed, 64)
			_, st, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10})
			if err != nil {
				b.Fatal(err)
			}
			cols := float64(st.Candidates)
			for _, path := range []string{"decoded", "columnar"} {
				path := path
				b.Run(path, func(b *testing.B) {
					if path == "columnar" {
						if ix.BuildColumnar() == 0 {
							b.Fatal("nothing packed")
						}
					} else {
						ix.view = nil
					}
					for _, rank := range scanRanks {
						for _, procs := range procsSweep() {
							b.Run(fmt.Sprintf("rank=%s/procs=%d", rank.name, procs), func(b *testing.B) {
								prev := runtime.GOMAXPROCS(procs)
								defer runtime.GOMAXPROCS(prev)
								b.ResetTimer()
								for i := 0; i < b.N; i++ {
									if _, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: rank.by, K: 10}); err != nil {
										b.Fatal(err)
									}
								}
								b.StopTimer()
								b.ReportMetric(cols*float64(b.N)/b.Elapsed().Seconds(), "cols/s")
							})
						}
					}
				})
			}
		})
	}
}

// bestOf times reps batches of searches and returns the fastest batch,
// after one warm pass that faults in the working set.
func bestOf(t *testing.T, search func() error) time.Duration {
	t.Helper()
	const searches, reps = 10, 3
	if err := search(); err != nil {
		t.Fatal(err)
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < searches; i++ {
			if err := search(); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestRankFirstScanSpeedupSmoke is the CI perf gate for rank-then-fill:
// on the packed dart-WMH index at k = 10, ranking by join size (one
// estimate per table, five more for each of the ten results) must scan
// ≥3× the columns per second of ranking by correlation (all six for every
// candidate; ≈6× measured at 160 tables of two columns on average). Both
// sides run on the same host back to back, so the ratio needs no quiet
// machine and no minimum core count. Opt-in via IPSKETCH_BENCH_SMOKE=1
// like the other wall-clock gates.
func TestRankFirstScanSpeedupSmoke(t *testing.T) {
	if os.Getenv("IPSKETCH_BENCH_SMOKE") == "" {
		t.Skip("set IPSKETCH_BENCH_SMOKE=1 to run the rank-first scan gate")
	}
	cfg := Config{Method: MethodWMH, StorageWords: 300, Seed: 13}
	qSk, ix := buildColumnarFixture(t, cfg, 8100, 160)
	if ix.BuildColumnar() != ix.Len() {
		t.Fatal("fixture not fully packed")
	}
	run := func(by RankBy) time.Duration {
		return bestOf(t, func() error {
			_, st, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: by, K: 10})
			if err == nil && st.Fallback != 0 {
				err = fmt.Errorf("scan fell back to the decoded path: %+v", st)
			}
			return err
		})
	}
	corr := run(RankByAbsCorrelation)
	size := run(RankByJoinSize)
	ratio := float64(corr) / float64(size)
	t.Logf("abs_corr %v, join_size %v per 10 searches: join_size scans %.1f× the columns/s", corr, size, ratio)
	if ratio < 3 {
		t.Errorf("join_size scans only %.2f× the columns/s of abs_corr, want ≥3×", ratio)
	}
}

// TestColumnarScanSpeedupSmoke is the CI perf gate for the columnar scan:
// with the packed view built, Search must beat the decoded path on the
// same index by each family's floor — ≥2× for dart WMH and KMV, ≥1.5× for
// MH. Both paths run each family's one match loop, so the gap is what the
// packed path skips: backend dispatch and type asserts per estimate,
// per-column map lookups, and the decoded path's six estimates per
// candidate where the join-size ranking reads one per table. PS/TS are
// benchmarked but not gated. Opt-in via IPSKETCH_BENCH_SMOKE=1:
// wall-clock assertions do not belong in the default `go test` run.
func TestColumnarScanSpeedupSmoke(t *testing.T) {
	if os.Getenv("IPSKETCH_BENCH_SMOKE") == "" {
		t.Skip("set IPSKETCH_BENCH_SMOKE=1 to run the columnar scan gate")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 || runtime.NumCPU() < 4 {
		t.Skipf("GOMAXPROCS=%d, NumCPU=%d: the speedup gate needs at least 4 real cores", procs, runtime.NumCPU())
	}
	floors := map[string]float64{"MH": 1.5, "WMH": 2, "KMV": 2}
	for _, fam := range columnarFamilies {
		floor, ok := floors[fam.name]
		if !ok {
			continue
		}
		qSk, ix := buildColumnarFixture(t, fam.cfg, 8000+fam.cfg.Seed, 96)
		run := func() time.Duration {
			return bestOf(t, func() error {
				_, _, err := ix.Search(Query{Sketch: qSk, Column: "v", RankBy: RankByJoinSize, K: 10})
				return err
			})
		}
		ix.view = nil
		decoded := run()
		if ix.BuildColumnar() == 0 {
			t.Fatalf("%s: nothing packed", fam.name)
		}
		columnar := run()
		speedup := float64(decoded) / float64(columnar)
		t.Logf("%s: decoded %v, columnar %v, speedup %.1f×", fam.name, decoded, columnar, speedup)
		if speedup < floor {
			t.Errorf("%s: columnar scan only %.2f× faster than decoded, want ≥%v×", fam.name, speedup, floor)
		}
	}
}
