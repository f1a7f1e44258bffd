package wmh

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
	"repro/internal/vector"
)

// TestDartBuilderMatchesNew: the dart variant through New and through a
// reused Builder must be bitwise identical (including scratch reuse across
// vectors of different dims, which rebuilds the dart process tables).
func TestDartBuilderMatchesNew(t *testing.T) {
	for _, quant := range []bool{false, true} {
		p := Params{M: 47, Seed: 0xda27, QuantizeValues: quant, Dart: true}
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		var dst Sketch
		for round := 0; round < 2; round++ {
			for _, v := range testVectors(t) {
				want, err := New(v, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.SketchInto(&dst, v); err != nil {
					t.Fatal(err)
				}
				sketchesEqual(t, &dst, want, "dart SketchInto")
			}
		}
	}
}

// bundleVectors returns one key set under three weightings, as a table
// bundle has it: the indicator, a value column with zeros (a strict subset
// of the keys) and entries that round to weight 0, and its square.
func bundleVectors(t testing.TB, dim uint64, rows int, seed uint64) []vector.Sparse {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	idx := make([]uint64, rows)
	ones := make([]float64, rows)
	vals := make([]float64, rows)
	sqs := make([]float64, rows)
	for i := range idx {
		idx[i] = uint64(i)*(dim/uint64(rows)) + rng.Uint64()%(dim/uint64(rows))
		ones[i] = 1
		switch i % 9 {
		case 2:
			vals[i] = 0
		case 5:
			vals[i] = 1e-9
		default:
			vals[i] = 3 * rng.Norm()
		}
		sqs[i] = vals[i] * vals[i]
	}
	return []vector.Sparse{
		vector.MustNew(dim, idx, ones),
		vector.MustNew(dim, idx, vals),
		vector.MustNew(dim, idx, sqs),
	}
}

// TestSketchAllMatchesSketch: SketchAll's shared walk must reproduce every
// vector's own sketch bitwise, for both constructions, on bundles, on
// batches mixing dims (so resolved L changes mid-batch) and empty vectors,
// and across calls that reuse the builder's scratch.
func TestSketchAllMatchesSketch(t *testing.T) {
	batches := [][]vector.Sparse{
		bundleVectors(t, 1<<40, 400, 1),
		bundleVectors(t, 1<<20, 1, 2),
		append(bundleVectors(t, 1<<16, 50, 3), testVectors(t)...),
	}
	for _, p := range []Params{
		{M: 97, Seed: 4, Dart: true},
		{M: 97, Seed: 4, Dart: true, QuantizeValues: true},
		{M: 31, Seed: 4},
	} {
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for bi, vs := range batches {
				got, err := b.SketchAll(vs)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(vs) {
					t.Fatalf("%+v batch %d: %d sketches for %d vectors", p, bi, len(got), len(vs))
				}
				for k, v := range vs {
					want, err := New(v, p)
					if err != nil {
						t.Fatal(err)
					}
					sketchesEqual(t, got[k], want, fmt.Sprintf("%+v batch %d vector %d", p, bi, k))
				}
			}
		}
	}
}

// dartRounds counts the rounds fillDart runs for one vector alone: a
// round-by-round replay of its dart minima under dp.
func dartRounds(dp *hashing.DartProcess, seed uint64, bl blocks) int {
	best := make([]float64, dp.M())
	for i := range best {
		best[i] = math.Inf(1)
	}
	missing := len(best)
	round := 0
	for ; missing > 0 && round < dartMaxRounds; round++ {
		for k := range bl.idx {
			ss, vs, _ := dp.ThrowBlock(dartBlockKey(seed, bl.idx[k]), bl.weights[k], round)
			for d, i := range ss {
				if vs[d] < best[i] {
					if math.IsInf(best[i], 1) {
						missing--
					}
					best[i] = vs[d]
				}
			}
		}
	}
	return round
}

// TestSketchAllFallbackRoundsDiffer runs the shared walk under a tiny dart
// budget, where the vectors of one batch need different numbers of
// fallback rounds: the vectors still missing samples must keep walking
// after the others are complete and sit out, and every sketch must still
// equal the one its vector gets alone under the same process.
func TestSketchAllFallbackRoundsDiffer(t *testing.T) {
	const l = 1 << 30
	p := Params{M: 40, Seed: 77, L: l, Dart: true}
	tiny := func() *hashing.DartProcess { return hashing.NewDartProcessBudget(p.M, l, 0.3) }
	vs := append(bundleVectors(t, 1<<20, 30, 5), bundleVectors(t, 1<<20, 3, 6)...)
	vs = append(vs, vector.MustNew(1<<20, []uint64{17}, []float64{2}))

	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	b.dart, b.dartL = tiny(), l
	got, err := b.SketchAll(vs)
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[int]bool{}
	for k, v := range vs {
		one, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		one.dart, one.dartL = tiny(), l
		var want Sketch
		if err := one.SketchInto(&want, v); err != nil {
			t.Fatal(err)
		}
		sketchesEqual(t, got[k], &want, fmt.Sprintf("vector %d", k))
		one.round(0, v)
		rounds[dartRounds(one.dart, p.Seed, one.vecs[0])] = true
	}
	if len(rounds) < 2 {
		t.Fatalf("every vector needed the same number of rounds %v; the budget does not exercise the walk's sit-out path", rounds)
	}
}

// TestDartSamplesAlwaysPopulated: every sample of a dart sketch must hold
// a finite hash in (0,1] and the value of some rounded block — including
// vectors whose rounding leaves a single heavy block, where round-0 misses
// are most likely to need the fallback round.
func TestDartSamplesAlwaysPopulated(t *testing.T) {
	vs := append(testVectors(t),
		vector.MustNew(1<<20, []uint64{3, 999999}, []float64{1e-9, 5e4}))
	for seed := uint64(0); seed < 30; seed++ {
		p := Params{M: 256, Seed: seed, Dart: true}
		for _, v := range vs {
			s, err := New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			if s.IsEmpty() {
				continue
			}
			for i := range s.hashes {
				if !(s.hashes[i] > 0 && s.hashes[i] <= 1) {
					t.Fatalf("seed %d sample %d: hash %v outside (0,1]", seed, i, s.hashes[i])
				}
				if s.vals[i] == 0 {
					t.Fatalf("seed %d sample %d: unpopulated value", seed, i)
				}
			}
		}
	}
}

// TestDartIncompatibleAcrossVariants: dart sketches must refuse comparison
// with the record-process variant, and the naive reference rejects the
// flag up front.
func TestDartIncompatibleAcrossVariants(t *testing.T) {
	if _, err := NewNaive(testVectors(t)[2], Params{M: 8, Seed: 1, Dart: true}); err == nil {
		t.Fatal("NewNaive accepted Dart params")
	}
	v := testVectors(t)[2]
	dart, err := New(v, Params{M: 8, Seed: 1, Dart: true})
	if err != nil {
		t.Fatal(err)
	}
	record, err := New(v, Params{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(dart, record); err == nil {
		t.Fatal("Estimate accepted dart vs record-process sketch")
	}
}

// TestDartSerializeRoundTrip: the dart variant byte survives encoding and
// re-derives Params.Dart.
func TestDartSerializeRoundTrip(t *testing.T) {
	v := testVectors(t)[2]
	s, err := New(v, Params{M: 16, Seed: 9, Dart: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	sketchesEqual(t, &back, s, "round-trip")
	if !back.Params().Dart {
		t.Fatal("Dart lost in round-trip")
	}
}

// TestUnmarshalRejectsUnknownVariant: a payload carrying a variant byte
// this build does not know must be rejected, not misread as some existing
// variant (which would silently break the coordination law).
func TestUnmarshalRejectsUnknownVariant(t *testing.T) {
	s, err := New(testVectors(t)[2], Params{M: 8, Seed: 1, Dart: true})
	if err != nil {
		t.Fatal(err)
	}
	s.variant = variantDart + 5
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err == nil {
		t.Fatal("UnmarshalBinary accepted an unknown variant byte")
	}
}

// TestDartEstimateDistributionMatchesFast is the statistical A/B test: on
// the paper's synthetic workloads, dart and fast sketches must estimate
// the same inner product with the same error profile — unbiased to within
// sampling noise, mean absolute error within a whisker of each other, and
// inside the Theorem 2 envelope that EstimateErrorBound reports.
func TestDartEstimateDistributionMatchesFast(t *testing.T) {
	for _, overlap := range []float64{0.05, 0.5} {
		av, bv, err := datagen.SyntheticPair(datagen.PaperPairParams(overlap, 7))
		if err != nil {
			t.Fatal(err)
		}
		truth := vector.Dot(av, bv)
		scale := av.Norm() * bv.Norm()
		const trials = 60
		const m = 200
		var meanFast, meanDart, errFast, errDart, boundFast, boundDart float64
		withinFast, withinDart := 0, 0
		for i := 0; i < trials; i++ {
			for _, dart := range []bool{false, true} {
				p := Params{M: m, Seed: uint64(i), Dart: dart}
				sa, err := New(av, p)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := New(bv, p)
				if err != nil {
					t.Fatal(err)
				}
				est, err := Estimate(sa, sb)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := EstimateErrorBound(sa, sb)
				if err != nil {
					t.Fatal(err)
				}
				inside := math.Abs(est-truth) <= 4*bound.PerSqrtM
				if dart {
					meanDart += est
					errDart += math.Abs(est - truth)
					boundDart += bound.PerSqrtM
					if inside {
						withinDart++
					}
				} else {
					meanFast += est
					errFast += math.Abs(est - truth)
					boundFast += bound.PerSqrtM
					if inside {
						withinFast++
					}
				}
			}
		}
		meanFast /= trials
		meanDart /= trials
		errFast /= trials
		errDart /= trials
		// Unbiasedness: both sample means within 4 standard errors of the
		// truth (std of one estimate is on the order of scale/√m).
		se := 4 * scale / math.Sqrt(m) / math.Sqrt(trials)
		if math.Abs(meanDart-truth) > se {
			t.Errorf("overlap %v: dart mean %.4g vs truth %.4g (tol %.4g)", overlap, meanDart, truth, se)
		}
		if math.Abs(meanFast-truth) > se {
			t.Errorf("overlap %v: fast mean %.4g vs truth %.4g (tol %.4g)", overlap, meanFast, truth, se)
		}
		// Same error envelope: neither variant may be categorically worse.
		if errDart > 1.5*errFast+0.02*scale {
			t.Errorf("overlap %v: dart MAE %.4g much worse than fast %.4g", overlap, errDart, errFast)
		}
		if errFast > 1.5*errDart+0.02*scale {
			t.Errorf("overlap %v: fast MAE %.4g much worse than dart %.4g", overlap, errFast, errDart)
		}
		// Theorem 2 envelope: the dart MAE stays on the order of the
		// self-reported bound, and the fraction of trials inside the
		// 4σ-order envelope matches the fast variant's (both variants
		// report the same Scale law, so neither may escape it more often).
		if errDart > 2.5*boundDart/trials {
			t.Errorf("overlap %v: dart MAE %.4g far outside the reported envelope %.4g",
				overlap, errDart, boundDart/trials)
		}
		if withinDart < withinFast-trials*15/100 {
			t.Errorf("overlap %v: dart inside the 4σ envelope %d/%d trials vs fast %d/%d",
				overlap, withinDart, trials, withinFast, trials)
		}
	}
}

// TestDartConstructionSpeedupSmoke is the CI perf gate: on the pinned
// paper workload (PaperPairParams(0.1, 1), M = 266 — the BenchmarkSketch_WMH
// configuration), dart construction must be at least 5× faster than the
// fast record process. The measured gap is two orders of magnitude larger
// (~300×), so the 5× floor only trips on a real regression, not on CI
// noise. Opt-in via IPSKETCH_BENCH_SMOKE=1: wall-clock assertions do not
// belong in the default `go test` run.
func TestDartConstructionSpeedupSmoke(t *testing.T) {
	if os.Getenv("IPSKETCH_BENCH_SMOKE") == "" {
		t.Skip("set IPSKETCH_BENCH_SMOKE=1 to run the dart speedup gate")
	}
	av, _, err := datagen.SyntheticPair(datagen.PaperPairParams(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(p Params) float64 {
		b, err := NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		var dst Sketch
		if err := b.SketchInto(&dst, av); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				if err := b.SketchInto(&dst, av); err != nil {
					tb.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	fast := measure(Params{M: 266, Seed: 1})
	dart := measure(Params{M: 266, Seed: 1, Dart: true})
	t.Logf("fast %.2fms/sketch, dart %.3fms/sketch, speedup %.0f×", fast/1e6, dart/1e6, fast/dart)
	if dart*5 > fast {
		t.Fatalf("dart construction only %.1f× faster than fast (%.2fms vs %.2fms), want ≥5×",
			fast/dart, dart/1e6, fast/1e6)
	}
}

// TestDartJaccardAndUnionAgreeWithFast: the auxiliary estimators derive
// from the same collision/minimum laws, so the dart variant must agree
// with the fast variant to within sampling noise.
func TestDartJaccardAndUnionAgreeWithFast(t *testing.T) {
	av, bv, err := datagen.SyntheticPair(datagen.PaperPairParams(0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40
	const m = 256
	var jFast, jDart, uFast, uDart float64
	for i := 0; i < trials; i++ {
		for _, dart := range []bool{false, true} {
			p := Params{M: m, Seed: uint64(i), Dart: dart}
			sa, _ := New(av, p)
			sb, _ := New(bv, p)
			j, err := WeightedJaccardEstimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			u, err := WeightedUnionEstimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			if dart {
				jDart += j
				uDart += u
			} else {
				jFast += j
				uFast += u
			}
		}
	}
	jFast, jDart = jFast/trials, jDart/trials
	uFast, uDart = uFast/trials, uDart/trials
	if tol := 6 / math.Sqrt(float64(m*trials)); math.Abs(jFast-jDart) > tol {
		t.Errorf("weighted Jaccard means diverge: fast %.4f vs dart %.4f (tol %.4f)", jFast, jDart, tol)
	}
	if math.Abs(uFast-uDart) > 0.05*uFast {
		t.Errorf("weighted union means diverge: fast %.4f vs dart %.4f", uFast, uDart)
	}
}
