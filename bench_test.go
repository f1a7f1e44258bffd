// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact), micro-benchmarks for sketching and
// estimation throughput, and ablation benchmarks for the design choices
// called out in DESIGN.md.
//
// Figure benchmarks run a scaled-down experiment per iteration and report
// the headline series as custom metrics (err<METHOD>/op), so `go test
// -bench` output doubles as a quick reproduction check. The full-scale
// regeneration lives in cmd/experiments.
package ipsketch_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	ipsketch "repro"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/hashing"
	"repro/internal/vector"
	"repro/internal/wmh"
)

// --- Table 1 ---

func BenchmarkTable1Guarantees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickTable1Config(uint64(i))
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.Ratio[len(row.Ratio)-1], "ratio"+row.Method.String()+"/op")
			}
		}
	}
}

// --- Figure 4 (one benchmark per panel) ---

func benchFigure4(b *testing.B, overlap float64) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Figure4Config{
			Overlaps: []float64{overlap},
			Storages: []int{400},
			Methods:  ipsketch.PaperMethods(),
			Trials:   3,
			Seed:     uint64(i),
		}
		res, err := experiments.RunFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for mi, m := range cfg.Methods {
				b.ReportMetric(res.Err[0][0][mi], "err"+m.String()+"/op")
			}
		}
	}
}

func BenchmarkFigure4_Overlap1(b *testing.B)  { benchFigure4(b, 0.01) }
func BenchmarkFigure4_Overlap5(b *testing.B)  { benchFigure4(b, 0.05) }
func BenchmarkFigure4_Overlap10(b *testing.B) { benchFigure4(b, 0.10) }
func BenchmarkFigure4_Overlap50(b *testing.B) { benchFigure4(b, 0.50) }

// --- Figure 5 ---

func BenchmarkFigure5_WorldBank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickFigure5Config(uint64(i))
		res, err := experiments.RunFigure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Headline cell: lowest-overlap column, averaged over kurtosis
			// rows, for each baseline (negative ⇒ WMH wins).
			for _, bm := range cfg.Baselines {
				sum, n := 0.0, 0
				for ri := range cfg.KurtosisBuckets {
					if res.Count[ri][0] > 0 {
						sum += res.Diff[bm][ri][0]
						n++
					}
				}
				if n > 0 {
					b.ReportMetric(sum/float64(n), "diffWMHvs"+bm.String()+"/op")
				}
			}
		}
	}
}

// --- Figure 6 ---

func BenchmarkFigure6_TextSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickFigure6Config(uint64(i))
		res, err := experiments.RunFigure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(cfg.Storages) - 1
			for mi, m := range cfg.Methods {
				b.ReportMetric(res.ErrAll[last][mi], "err"+m.String()+"/op")
			}
		}
	}
}

// --- Micro-benchmarks: sketching and estimation throughput ---

func paperVectors(b *testing.B, overlap float64) (vector.Sparse, vector.Sparse) {
	b.Helper()
	a, v, err := datagen.SyntheticPair(datagen.PaperPairParams(overlap, 1))
	if err != nil {
		b.Fatal(err)
	}
	return a, v
}

func benchSketch(b *testing.B, m ipsketch.Method, storage int) {
	a, _ := paperVectors(b, 0.1)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: m, StorageWords: storage, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sketch(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketch_WMH(b *testing.B)         { benchSketch(b, ipsketch.MethodWMH, 400) }
func BenchmarkSketch_MH(b *testing.B)          { benchSketch(b, ipsketch.MethodMH, 400) }
func BenchmarkSketch_KMV(b *testing.B)         { benchSketch(b, ipsketch.MethodKMV, 400) }
func BenchmarkSketch_JL(b *testing.B)          { benchSketch(b, ipsketch.MethodJL, 400) }
func BenchmarkSketch_CountSketch(b *testing.B) { benchSketch(b, ipsketch.MethodCountSketch, 400) }
func BenchmarkSketch_SimHash(b *testing.B)     { benchSketch(b, ipsketch.MethodSimHash, 9) }
func BenchmarkSketch_PS(b *testing.B)          { benchSketch(b, ipsketch.MethodPS, 400) }
func BenchmarkSketch_TS(b *testing.B)          { benchSketch(b, ipsketch.MethodTS, 400) }

func benchEstimate(b *testing.B, m ipsketch.Method, storage int) {
	av, bv := paperVectors(b, 0.1)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: m, StorageWords: storage, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sa, err := s.Sketch(av)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := s.Sketch(bv)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipsketch.Estimate(sa, sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimate_WMH(b *testing.B)         { benchEstimate(b, ipsketch.MethodWMH, 400) }
func BenchmarkEstimate_MH(b *testing.B)          { benchEstimate(b, ipsketch.MethodMH, 400) }
func BenchmarkEstimate_KMV(b *testing.B)         { benchEstimate(b, ipsketch.MethodKMV, 400) }
func BenchmarkEstimate_JL(b *testing.B)          { benchEstimate(b, ipsketch.MethodJL, 400) }
func BenchmarkEstimate_CountSketch(b *testing.B) { benchEstimate(b, ipsketch.MethodCountSketch, 400) }
func BenchmarkEstimate_SimHash(b *testing.B)     { benchEstimate(b, ipsketch.MethodSimHash, 9) }
func BenchmarkEstimate_PS(b *testing.B)          { benchEstimate(b, ipsketch.MethodPS, 400) }
func BenchmarkEstimate_TS(b *testing.B)          { benchEstimate(b, ipsketch.MethodTS, 400) }

// --- Engine micro-benchmarks: batch sketching, builders, top-k search ---
//
// Paper-scale parameters for the sketching engine: m = 400 samples
// (StorageWords 601 ⇒ (601−1)/1.5 = 400) over vectors with |A| ≈ 1000.

const engineStorage = 601 // ⇒ exactly 400 WMH samples

func engineVectors(b *testing.B, n int) []ipsketch.Vector {
	b.Helper()
	out := make([]ipsketch.Vector, 0, n)
	for i := 0; i < n; i++ {
		pp := datagen.PaperPairParams(0.1, uint64(i+1))
		pp.NNZ = 1000
		v, _, err := datagen.SyntheticPair(pp)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func BenchmarkSketchWMH_Batch(b *testing.B) {
	vs := engineVectors(b, 8)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: engineStorage, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SketchAll(vs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerVec := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(vs))
	b.ReportMetric(nsPerVec, "ns/vec")
}

// BenchmarkSketchWMH_Single is the one-at-a-time path at engine scale —
// the baseline the batch paths are compared against.
func BenchmarkSketchWMH_Single(b *testing.B) {
	v := engineVectors(b, 1)[0]
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: engineStorage, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sketch(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchWMH_Builder is one warm builder's steady state, without
// the Sketcher's pool and envelope: each sketch allocates only itself and
// its two sample arrays.
func BenchmarkSketchWMH_Builder(b *testing.B) {
	v := engineVectors(b, 1)[0]
	bu, err := wmh.NewBuilder(wmh.Params{M: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bu.Sketch(v); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bu.Sketch(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchMH_Batch(b *testing.B) {
	vs := engineVectors(b, 8)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: engineStorage, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SketchAll(vs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vs)), "ns/vec")
}

// benchCatalog builds a catalog of tables for search benchmarks.
func benchCatalog(b *testing.B, tables int) (*ipsketch.TableSketch, *ipsketch.SketchIndex) {
	b.Helper()
	rng := hashing.NewSplitMix64(99)
	const rows = 300
	mkTable := func(name string, offset uint64) *ipsketch.TableSketch {
		keys := make([]uint64, rows)
		vals := make([]float64, rows)
		for i := range keys {
			keys[i] = offset + uint64(i*2)
			vals[i] = rng.Norm()
		}
		tab, err := ipsketch.NewTable(name, keys, map[string][]float64{"v": vals})
		if err != nil {
			b.Fatal(err)
		}
		ts, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 5}, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := ts.SketchTable(tab)
		if err != nil {
			b.Fatal(err)
		}
		return sk
	}
	ix := ipsketch.NewSketchIndex()
	for i := 0; i < tables; i++ {
		if err := ix.Add(mkTable(fmt.Sprintf("t%03d", i), uint64(i%7)*100)); err != nil {
			b.Fatal(err)
		}
	}
	return mkTable("query", 50), ix
}

func BenchmarkSearchFull(b *testing.B) {
	q, ix := benchCatalog(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(ipsketch.Query{Sketch: q, Column: "v", RankBy: RankByJoinSizeBench, K: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchTopK(b *testing.B) {
	q, ix := benchCatalog(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(ipsketch.Query{Sketch: q, Column: "v", RankBy: RankByJoinSizeBench, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// RankByJoinSizeBench aliases the ranking constant so the benchmarks read
// next to their package-qualified uses above.
const RankByJoinSizeBench = ipsketch.RankByJoinSize

// --- Ablations (DESIGN.md A1–A6; A3 is in internal/wmh) ---

// A1: FM union estimator (paper Algorithm 5) vs the unit-norm identity
// M = 2/(1+J̄).
func BenchmarkAblation_UnionEstimator(b *testing.B) {
	av, bv := paperVectors(b, 0.1)
	truth := vector.Dot(av, bv)
	scale := av.Norm() * bv.Norm()
	var errFM, errID float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := wmh.Params{M: 256, Seed: uint64(i), L: 1 << 22}
		sa, err := wmh.New(av, p)
		if err != nil {
			b.Fatal(err)
		}
		sb, _ := wmh.New(bv, p)
		fm, err := wmh.EstimateWithOptions(sa, sb, wmh.Options{Union: wmh.FMUnion})
		if err != nil {
			b.Fatal(err)
		}
		id, _ := wmh.EstimateWithOptions(sa, sb, wmh.Options{Union: wmh.UnitNormIdentity})
		errFM += math.Abs(fm-truth) / scale
		errID += math.Abs(id-truth) / scale
		n++
	}
	b.ReportMetric(errFM/float64(n), "errFM/op")
	b.ReportMetric(errID/float64(n), "errIdentity/op")
}

// A2: effect of the discretization parameter L (paper §5 "Choice of L":
// must exceed n, ideally by 100–1000×).
func BenchmarkAblation_DiscretizationL(b *testing.B) {
	av, bv := paperVectors(b, 0.1)
	truth := vector.Dot(av, bv)
	scale := av.Norm() * bv.Norm()
	for _, l := range []uint64{1 << 10, 1 << 14, 1 << 22, 1 << 30} {
		b.Run(fmt.Sprintf("L=2^%d", log2(l)), func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				p := wmh.Params{M: 256, Seed: uint64(i), L: l}
				sa, err := wmh.New(av, p)
				if err != nil {
					b.Fatal(err)
				}
				sb, _ := wmh.New(bv, p)
				est, err := wmh.Estimate(sa, sb)
				if err != nil {
					b.Fatal(err)
				}
				sum += math.Abs(est-truth) / scale
			}
			b.ReportMetric(sum/float64(b.N), "err/op")
		})
	}
}

// A6: full 64-bit values vs 32-bit quantized values at EQUAL storage —
// quantization buys 50% more samples per word (paper's storage
// discussion).
func BenchmarkAblation_Quantization(b *testing.B) {
	av, bv := paperVectors(b, 0.1)
	truth := vector.Dot(av, bv)
	scale := av.Norm() * bv.Norm()
	var errFull, errQuant float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, quantize := range []bool{false, true} {
			cfg := ipsketch.Config{
				Method: ipsketch.MethodWMH, StorageWords: 200,
				Seed: uint64(i), Quantize: quantize,
			}
			s, err := ipsketch.NewSketcher(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sa, _ := s.Sketch(av)
			sb, _ := s.Sketch(bv)
			est, err := ipsketch.Estimate(sa, sb)
			if err != nil {
				b.Fatal(err)
			}
			e := math.Abs(est-truth) / scale
			if quantize {
				errQuant += e
			} else {
				errFull += e
			}
		}
		n++
	}
	b.ReportMetric(errFull/float64(n), "errFull64/op")
	b.ReportMetric(errQuant/float64(n), "errQuant32/op")
}

// A5: single sketch vs median-of-9 boosting at 9× the storage.
func BenchmarkAblation_MedianBoost(b *testing.B) {
	av, bv := paperVectors(b, 0.1)
	truth := vector.Dot(av, bv)
	scale := av.Norm() * bv.Norm()
	var errSingle, errMedian float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 100, Seed: hashing.Mix(uint64(i))}
		s, err := ipsketch.NewSketcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sa, _ := s.Sketch(av)
		sb, _ := s.Sketch(bv)
		est, err := ipsketch.Estimate(sa, sb)
		if err != nil {
			b.Fatal(err)
		}
		errSingle += math.Abs(est-truth) / scale

		ms, err := ipsketch.NewMedianSketcher(cfg, 9)
		if err != nil {
			b.Fatal(err)
		}
		ma, _ := ms.Sketch(av)
		mb, _ := ms.Sketch(bv)
		mest, err := ipsketch.EstimateMedian(ma, mb)
		if err != nil {
			b.Fatal(err)
		}
		errMedian += math.Abs(mest-truth) / scale
		n++
	}
	b.ReportMetric(errSingle/float64(n), "errSingle/op")
	b.ReportMetric(errMedian/float64(n), "errMedian9/op")
}

func log2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// --- Merge and chunked-ingest micro-benchmarks ---
//
// benchMerge times the merge hot path per method family: two partial
// sketches of disjoint halves of the paper workload folded into one.
// WMH partials come from SketchShards (the shard contract); the
// coordinate-keyed and linear families merge independently built halves.

func benchMerge(b *testing.B, cfg ipsketch.Config) {
	av, _ := paperVectors(b, 0.1)
	s, err := ipsketch.NewSketcher(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sa, sb *ipsketch.Sketch
	switch cfg.Method {
	case ipsketch.MethodWMH:
		shards, err := s.SketchShards(av, 2)
		if err != nil {
			b.Fatal(err)
		}
		sa, sb = shards[0], shards[1]
	default:
		half := av.NNZ() / 2
		if sa, err = s.Sketch(av.Shard(0, half)); err != nil {
			b.Fatal(err)
		}
		if sb, err = s.Sketch(av.Shard(half, av.NNZ())); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.Merge(sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge_WMH(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_MH(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_KMV(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodKMV, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_PS(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodPS, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_TS(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodTS, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_JL(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodJL, StorageWords: 400, Seed: 1})
}
func BenchmarkMerge_CountSketch(b *testing.B) {
	benchMerge(b, ipsketch.Config{Method: ipsketch.MethodCountSketch, StorageWords: 400, Seed: 1})
}

// chunkedIngestBatch is the batch of paper vectors the bulk-ingest
// benchmarks push through SketchAll. The serial baseline is the same batch
// at GOMAXPROCS=1 (hi/lo pair: BenchmarkChunkedIngest_MH vs
// BenchmarkChunkedIngest_MH_Serial shows the end-to-end core scaling; on
// multi-core hosts the CI gate asserts ≥2×).
func chunkedIngestBatch(b *testing.B) []ipsketch.Vector {
	b.Helper()
	vs := make([]ipsketch.Vector, 32)
	for i := range vs {
		av, _, err := datagen.SyntheticPair(datagen.PaperPairParams(0.1, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		vs[i] = av
	}
	return vs
}

func BenchmarkChunkedIngest_MH(b *testing.B) {
	vs := chunkedIngestBatch(b)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SketchAll(vs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(vs))*float64(b.N)/b.Elapsed().Seconds(), "vecs/s")
}

func BenchmarkChunkedIngest_MH_Serial(b *testing.B) {
	vs := chunkedIngestBatch(b)
	s, err := ipsketch.NewSketcher(ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SketchAll(vs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(vs))*float64(b.N)/b.Elapsed().Seconds(), "vecs/s")
}

// BenchmarkChunkedIngest_TableBundle is the serving-layer shape: one
// table bundle (three vectors) sketched through SketchTable, as the
// serving layer calls it.
func BenchmarkChunkedIngest_TableBundle(b *testing.B) {
	const rows = 2000
	keys := make([]uint64, rows)
	vals := make([]float64, rows)
	for i := range keys {
		keys[i] = uint64(i*3 + 1)
		vals[i] = float64(i%13 + 1)
	}
	tab, err := ipsketch.NewTable("t", keys, map[string][]float64{"v": vals})
	if err != nil {
		b.Fatal(err)
	}
	ts, err := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 400, Seed: 1}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.SketchTable(tab); err != nil {
			b.Fatal(err)
		}
	}
}
