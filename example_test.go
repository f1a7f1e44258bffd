package ipsketch_test

import (
	"fmt"
	"math/rand/v2"

	ipsketch "repro"
)

// ExampleEstimate sketches two vectors independently and estimates their
// inner product from the sketches alone.
func ExampleEstimate() {
	a, _ := ipsketch.VectorFromMap(1<<32, map[uint64]float64{3: 1.5, 900: -2.0, 77: 4.0})
	b, _ := ipsketch.VectorFromMap(1<<32, map[uint64]float64{3: 4.0, 777: 0.5, 77: 1.0})

	sk, _ := ipsketch.NewSketcher(ipsketch.Config{
		Method:       ipsketch.MethodKMV, // KMV is exact on tiny supports
		StorageWords: 64,
		Seed:         1,
	})
	sa, _ := sk.Sketch(a)
	sb, _ := sk.Sketch(b)
	est, _ := ipsketch.Estimate(sa, sb)
	fmt.Printf("estimate: %.1f, exact: %.1f\n", est, ipsketch.Dot(a, b))
	// Output: estimate: 10.0, exact: 10.0
}

// ExampleEstimateJoinStats estimates post-join statistics for the paper's
// Figure 2 tables without materializing the join.
func ExampleEstimateJoinStats() {
	ta, _ := ipsketch.NewTable("T_A",
		[]uint64{1, 3, 4, 5, 6, 7, 8, 9, 11},
		map[string][]float64{"V": {6, 2, 6, 1, 4, 2, 2, 8, 3}})
	tb, _ := ipsketch.NewTable("T_B",
		[]uint64{2, 4, 5, 8, 10, 11, 12, 15, 16},
		map[string][]float64{"V": {1, 5, 1, 2, 4, 2.5, 6, 6, 3.7}})

	ts, _ := ipsketch.NewTableSketcher(ipsketch.Config{
		Method:       ipsketch.MethodKMV,
		StorageWords: 150,
		Seed:         3,
	}, 64)
	ska, _ := ts.SketchTable(ta)
	skb, _ := ts.SketchTable(tb)
	st, _ := ipsketch.EstimateJoinStats(ska, "V", skb, "V")
	fmt.Printf("SIZE=%.0f SUM_A=%.1f MEAN_A=%.1f\n", st.Size, st.SumA, st.MeanA)
	// Output: SIZE=4 SUM_A=12.0 MEAN_A=3.0
}

// ExampleMedianSketcher boosts the success probability of an estimate with
// the median trick from the paper's Theorem 2 proof.
func ExampleMedianSketcher() {
	a, _ := ipsketch.VectorFromMap(1000, map[uint64]float64{1: 2, 2: 3})
	b, _ := ipsketch.VectorFromMap(1000, map[uint64]float64{1: 5, 2: 1})

	reps, _ := ipsketch.MedianReps(0.01) // failure probability δ = 1%
	ms, _ := ipsketch.NewMedianSketcher(ipsketch.Config{
		Method:       ipsketch.MethodKMV,
		StorageWords: 16,
		Seed:         1,
	}, reps)
	sa, _ := ms.Sketch(a)
	sb, _ := ms.Sketch(b)
	est, _ := ipsketch.EstimateMedian(sa, sb)
	fmt.Printf("estimate: %.1f\n", est)
	// Output: estimate: 13.0
}

// ExampleExactJoinStats computes the statistics of the paper's Figure 2
// join exactly, by materializing it: the values the paper prints and the
// sketch estimates of ExampleEstimateJoinStats aim at.
func ExampleExactJoinStats() {
	ta, _ := ipsketch.NewTable("T_A",
		[]uint64{1, 3, 4, 5, 6, 7, 8, 9, 11},
		map[string][]float64{"V": {6, 2, 6, 1, 4, 2, 2, 8, 3}})
	tb, _ := ipsketch.NewTable("T_B",
		[]uint64{2, 4, 5, 8, 10, 11, 12, 15, 16},
		map[string][]float64{"V": {1, 5, 1, 2, 4, 2.5, 6, 6, 3.7}})

	st, _ := ipsketch.ExactJoinStats(ta, "V", tb, "V")
	fmt.Printf("SIZE=%.0f SUM_A=%.1f SUM_B=%.1f MEAN_A=%.1f\n", st.Size, st.SumA, st.SumB, st.MeanA)
	// Output: SIZE=4 SUM_A=12.0 SUM_B=10.5 MEAN_A=3.0
}

// ExampleWMHBound compares the two error scales on sparse vectors that
// overlap on 50 of their 500 non-zeros: linear sketches err on the order
// of ‖a‖‖b‖ (Fact 1), Weighted MinHash on the order of
// max(‖a_I‖‖b‖, ‖a‖‖b_I‖) (Theorem 2), here four times smaller.
func ExampleWMHBound() {
	am, bm := map[uint64]float64{}, map[uint64]float64{}
	for i := uint64(0); i < 50; i++ { // the shared support I
		am[i], bm[i] = float64(i%5+1), float64(i%3+1)
	}
	for i := uint64(0); i < 450; i++ { // each vector's own support
		am[1000+i], bm[5000+i] = float64(i%7+1), float64(i%4+1)
	}
	a, _ := ipsketch.VectorFromMap(1_000_000, am)
	b, _ := ipsketch.VectorFromMap(1_000_000, bm)

	fmt.Printf("exact inner product: %.0f\n", ipsketch.Dot(a, b))
	fmt.Printf("linear error scale:  %.0f\n", ipsketch.LinearSketchBound(a, b))
	fmt.Printf("WMH error scale:     %.0f\n", ipsketch.WMHBound(a, b))
	// Output:
	// exact inner product: 298
	// linear error scale:  5848
	// WMH error scale:     1476
}

// ExampleSketchIndex_Search is the paper's motivating search (§1.2): a
// year of daily taxi rides is the query, and the candidate tables are
// sketched once and ranked by |estimated post-join correlation| without
// joining anything. MinJoinSize drops the table that does not join.
func ExampleSketchIndex_Search() {
	day := func(year, d int) uint64 { return uint64(year*1000 + d) } // yyyyddd
	rng := rand.New(rand.NewPCG(1, 2))
	rain := make([]float64, 365)
	var taxiKeys []uint64
	var rides []float64 // daily rides relative to the yearly mean
	for d := range rain {
		rain[d] = max(0, 4+8*rng.NormFloat64())
		taxiKeys = append(taxiKeys, day(2022, d))
		rides = append(rides, -2500*rain[d]+6000*rng.NormFloat64())
	}
	// Rain since 2013: a large key set that overlaps the query only in
	// 2022, where it drives the rides.
	var rainKeys []uint64
	var mm []float64
	for year := 2013; year <= 2022; year++ {
		for d := range rain {
			rainKeys = append(rainKeys, day(year, d))
			if year == 2022 {
				mm = append(mm, rain[d]+0.5*rng.NormFloat64())
			} else {
				mm = append(mm, max(0, 4+8*rng.NormFloat64()))
			}
		}
	}
	noise := make([]float64, 365)
	stations := make([]uint64, 200)
	for i := range noise {
		noise[i] = 100 * rng.NormFloat64()
	}
	for i := range stations {
		stations[i] = uint64(3_000_000 + i)
	}

	cfg := ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 1}
	ts, _ := ipsketch.NewTableSketcher(cfg, 0)
	sketch := func(name string, keys []uint64, col string, vals []float64) *ipsketch.TableSketch {
		t, _ := ipsketch.NewTable(name, keys, map[string][]float64{col: vals})
		sk, _ := ts.SketchTable(t)
		return sk
	}
	ix := ipsketch.NewSketchIndex()
	ix.Add(sketch("stock_noise_2022", taxiKeys, "close", noise))
	ix.Add(sketch("subway_stations", stations, "entries", noise[:200]))
	ix.Add(sketch("noaa_precipitation", rainKeys, "mm", mm))

	q := ipsketch.Query{
		Sketch:      sketch("taxi_rides_2022", taxiKeys, "rides", rides),
		Column:      "rides",
		RankBy:      ipsketch.RankByAbsCorrelation,
		MinJoinSize: 10,
		K:           -1,
	}
	// The weather table does join (~329 of 365 days estimated), but under
	// this seed its estimated variance of mm comes out negative, so its
	// correlation is undefined and the ranking leaves it out: 400 words
	// sample a 365-of-3650 overlap thinly.
	hits, _, _ := ix.Search(q)
	for _, h := range hits {
		fmt.Printf("%s.%s: |correlation| %.1f over ~%.0f joined days\n", h.Table, h.Column, h.Score, h.Stats.Size)
	}
	// Output:
	// stock_noise_2022.close: |correlation| 0.0 over ~346 joined days
}

// ExampleSketchIndex_BuildLSH retrieves near-duplicates through the banded
// candidate index: only tables sharing a band of MinHash signature with
// the query are scored, so the unrelated tables are never estimated.
func ExampleSketchIndex_BuildLSH() {
	ts, _ := ipsketch.NewTableSketcher(ipsketch.Config{Method: ipsketch.MethodMH, StorageWords: 200, Seed: 5}, 1<<20)
	// table holds keys [lo, lo+300) minus every step-th one.
	table := func(name string, lo, step int) *ipsketch.TableSketch {
		var keys []uint64
		var vals []float64
		for k := lo; k < lo+300; k++ {
			if step == 0 || k%step != 0 {
				keys, vals = append(keys, uint64(k)), append(vals, float64(k%9+1))
			}
		}
		t, _ := ipsketch.NewTable(name, keys, map[string][]float64{"v": vals})
		sk, _ := ts.SketchTable(t)
		return sk
	}
	ix := ipsketch.NewSketchIndex()
	ix.Add(table("copy_95pct", 0, 20))
	ix.Add(table("copy_85pct", 0, 7))
	for i := 1; i <= 20; i++ {
		ix.Add(table(fmt.Sprintf("other%02d", i), 1000*i, 0))
	}
	ix.BuildLSH(ipsketch.LSHParams{Bands: 24, Rows: 3}) // threshold ≈ 0.35

	q := ipsketch.Query{Sketch: table("query", 0, 0), Column: "v", RankBy: ipsketch.RankByJoinSize, K: 5, LSH: true}
	hits, stats, _ := ix.Search(q)
	for _, h := range hits {
		fmt.Println(h.Table)
	}
	fmt.Printf("scored %d of %d tables\n", stats.Candidates, ix.Len())
	// Output:
	// copy_95pct
	// copy_85pct
	// scored 2 of 22 tables
}
