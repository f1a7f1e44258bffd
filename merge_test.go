package ipsketch

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
)

// mergeableConfigs enumerates every configuration whose sketches merge:
// all methods but SimHash, plus WMH's quantized variant.
func mergeableConfigs(budget int) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"wmh", Config{Method: MethodWMH, StorageWords: budget, Seed: 7}},
		{"wmh-quantize", Config{Method: MethodWMH, StorageWords: budget, Seed: 7, Quantize: true}},
		{"mh", Config{Method: MethodMH, StorageWords: budget, Seed: 7}},
		{"kmv", Config{Method: MethodKMV, StorageWords: budget, Seed: 7}},
		{"ps", Config{Method: MethodPS, StorageWords: budget, Seed: 7}},
		{"ts", Config{Method: MethodTS, StorageWords: budget, Seed: 7}},
		{"jl", Config{Method: MethodJL, StorageWords: budget, Seed: 7}},
		{"cs", Config{Method: MethodCountSketch, StorageWords: budget, Seed: 7}},
	}
}

// intTestVector builds a vector with small integer values: squared norms
// and bucket sums then add associatively, so merged sketches of the
// norm-carrying and linear families can be compared bitwise against
// direct construction (JL is the one exception — its stored rows fold in
// an irrational 1/√m scale, so distributivity costs an ulp).
func intTestVector(t testing.TB, dim uint64, seed uint64, nnz int) Vector {
	t.Helper()
	rng := hashing.NewSplitMix64(seed)
	m := map[uint64]float64{}
	for len(m) < nnz {
		v := float64(1 + rng.Uint64n(30))
		if rng.Uint64n(2) == 0 {
			v = -v
		}
		m[rng.Uint64n(dim)] = v
	}
	v, err := VectorFromMap(dim, m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustBytes(t testing.TB, sk *Sketch) []byte {
	t.Helper()
	b, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// estimatesClose asserts two sketches estimate identically against a
// probe, up to float summation order.
func estimatesClose(t *testing.T, label string, a, b, probe *Sketch) {
	t.Helper()
	ea, err := Estimate(a, probe)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	eb, err := Estimate(b, probe)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if d := math.Abs(ea - eb); d > 1e-9*(math.Abs(ea)+math.Abs(eb))+1e-300 {
		t.Fatalf("%s: estimates diverge: %v vs %v", label, ea, eb)
	}
}

// TestMergeVsRebuildEquivalence is the tentpole property: for every
// mergeable configuration and several k-way splits, SketchShards partials
// folded by MergeAll must reproduce the directly built sketch — serialized
// byte-identically (pinning that merge introduces no hidden state), except
// JL whose folded-in 1/√m scale rounds once per row.
func TestMergeVsRebuildEquivalence(t *testing.T) {
	v := intTestVector(t, 1<<20, 41, 400)
	probe := intTestVector(t, 1<<20, 43, 400)
	for _, tc := range mergeableConfigs(96) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSketcher(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := s.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			probeSk, err := s.Sketch(probe)
			if err != nil {
				t.Fatal(err)
			}
			want := mustBytes(t, direct)
			for _, n := range []int{1, 2, 3, 8, 1000} {
				shards, err := s.SketchShards(v, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(shards) != n {
					t.Fatalf("n=%d: got %d shards", n, len(shards))
				}
				merged, err := MergeAll(shards)
				if err != nil {
					t.Fatal(err)
				}
				if tc.cfg.Method == MethodJL {
					estimatesClose(t, tc.name, merged, direct, probeSk)
					continue
				}
				if !bytes.Equal(mustBytes(t, merged), want) {
					t.Fatalf("n=%d: merged sketch serializes differently from direct construction", n)
				}
				// Byte-equal sketches must also estimate byte-equally.
				em, err := Estimate(merged, probeSk)
				if err != nil {
					t.Fatal(err)
				}
				ed, err := Estimate(direct, probeSk)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(em) != math.Float64bits(ed) {
					t.Fatalf("n=%d: merged estimate %v != direct %v", n, em, ed)
				}
			}
		})
	}
}

// TestMergeIndependentPartials is the distributed-producer contract: for
// the families whose randomness is keyed purely by coordinates (MH, KMV,
// PS, TS) or that are linear (JL, CS), sketches of disjoint sub-vectors
// built INDEPENDENTLY — no shared parent context — merge into exactly the
// sketch of the sum. WMH normalizes per vector, so its independently
// built partials must be rejected loudly instead.
func TestMergeIndependentPartials(t *testing.T) {
	v := intTestVector(t, 1<<20, 47, 300)
	half := v.NNZ() / 2
	lo, hi := v.Shard(0, half), v.Shard(half, v.NNZ())
	probe := intTestVector(t, 1<<20, 48, 300)
	for _, tc := range mergeableConfigs(96) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSketcher(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := s.Sketch(lo)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := s.Sketch(hi)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Method == MethodWMH {
				if _, err := sa.Merge(sb); err == nil {
					t.Fatal("independently normalized partials merged silently")
				}
				return
			}
			merged, err := sa.Merge(sb)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := s.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Method == MethodJL {
				probeSk, err := s.Sketch(probe)
				if err != nil {
					t.Fatal(err)
				}
				estimatesClose(t, tc.name, merged, direct, probeSk)
				return
			}
			if !bytes.Equal(mustBytes(t, merged), mustBytes(t, direct)) {
				t.Fatal("merged independent partials serialize differently from the sketch of the sum")
			}
		})
	}
}

// TestMergeStatisticalConformance A/B-tests merged-partial estimation
// against direct construction the way the dart variant was validated:
// across seeds, merged estimates must be unbiased (sample mean within 4
// standard errors of the truth, with the standard error calibrated from
// the direct estimator itself) and carry the same error envelope; for
// WMH the merged estimates must respect the self-reported
// EstimateErrorBound envelope at the direct rate.
func TestMergeStatisticalConformance(t *testing.T) {
	av, bv, err := datagen.SyntheticPair(datagen.PaperPairParams(0.25, 13))
	if err != nil {
		t.Fatal(err)
	}
	truth := Dot(av, bv)
	const trials = 30
	const parts = 3
	for _, tc := range mergeableConfigs(200) {
		t.Run(tc.name, func(t *testing.T) {
			var ests, directs []float64
			withinMerged, withinDirect := 0, 0
			for i := 0; i < trials; i++ {
				cfg := tc.cfg
				cfg.Seed = uint64(100 + i)
				s, err := NewSketcher(cfg)
				if err != nil {
					t.Fatal(err)
				}
				shards, err := s.SketchShards(av, parts)
				if err != nil {
					t.Fatal(err)
				}
				merged, err := MergeAll(shards)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := s.Sketch(av)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := s.Sketch(bv)
				if err != nil {
					t.Fatal(err)
				}
				em, err := Estimate(merged, sb)
				if err != nil {
					t.Fatal(err)
				}
				ed, err := Estimate(direct, sb)
				if err != nil {
					t.Fatal(err)
				}
				ests = append(ests, em)
				directs = append(directs, ed)
				if cfg.Method == MethodWMH {
					_, scale, err := EstimateWithBound(merged, sb)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(em-truth) <= 4*scale {
						withinMerged++
					}
					if _, scale, err = EstimateWithBound(direct, sb); err != nil {
						t.Fatal(err)
					}
					if math.Abs(ed-truth) <= 4*scale {
						withinDirect++
					}
				}
			}
			mean, maeMerged := 0.0, 0.0
			maeDirect, varDirect, meanDirect := 0.0, 0.0, 0.0
			for i := range ests {
				mean += ests[i]
				maeMerged += math.Abs(ests[i] - truth)
				maeDirect += math.Abs(directs[i] - truth)
				meanDirect += directs[i]
			}
			mean /= trials
			maeMerged /= trials
			maeDirect /= trials
			meanDirect /= trials
			for i := range directs {
				varDirect += (directs[i] - meanDirect) * (directs[i] - meanDirect)
			}
			varDirect /= trials
			scale := av.Norm() * bv.Norm()
			// Unbiasedness, with the tolerance calibrated from the direct
			// estimator's own spread (merged and direct share the same law).
			se := 4*math.Sqrt(varDirect/trials) + 0.01*scale
			if math.Abs(mean-truth) > se {
				t.Errorf("merged mean %.5g vs truth %.5g (tol %.3g)", mean, truth, se)
			}
			// Same error envelope as direct construction.
			if maeMerged > 1.5*maeDirect+0.02*scale {
				t.Errorf("merged MAE %.5g much worse than direct %.5g", maeMerged, maeDirect)
			}
			if tc.cfg.Method == MethodWMH && withinMerged < withinDirect-trials*15/100 {
				t.Errorf("merged inside the 4σ envelope %d/%d vs direct %d/%d",
					withinMerged, trials, withinDirect, trials)
			}
		})
	}
}

// TestMergeErrors pins the failure modes: non-mergeable methods, nil and
// mismatched inputs, and MergeAll edge cases.
func TestMergeErrors(t *testing.T) {
	v := intTestVector(t, 1<<16, 3, 50)
	sim, err := NewSketcher(Config{Method: MethodSimHash, StorageWords: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sim.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Merge(sk); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("SimHash merge: err = %v, want ErrNotMergeable", err)
	}
	if _, err := sim.SketchShards(v, 2); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("SimHash SketchShards: err = %v, want ErrNotMergeable", err)
	}

	mh, err := NewSketcher(Config{Method: MethodMH, StorageWords: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mhSk, err := mh.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mhSk.Merge(nil); err == nil {
		t.Fatal("nil merge input accepted")
	}
	kmv, err := NewSketcher(Config{Method: MethodKMV, StorageWords: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kmvSk, err := kmv.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mhSk.Merge(kmvSk); err == nil {
		t.Fatal("cross-method merge accepted")
	}
	otherSeed, err := NewSketcher(Config{Method: MethodMH, StorageWords: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	otherSk, err := otherSeed.Sketch(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mhSk.Merge(otherSk); err == nil {
		t.Fatal("seed mismatch merge accepted")
	}
	if _, err := MergeAll(nil); err == nil {
		t.Fatal("MergeAll of nothing accepted")
	}
	if _, err := MergeAll([]*Sketch{mhSk, nil}); err == nil {
		t.Fatal("MergeAll with nil entry accepted")
	}
	if got, err := MergeAll([]*Sketch{mhSk}); err != nil || got != mhSk {
		t.Fatalf("MergeAll singleton: %v, %v", got, err)
	}
	if _, err := mh.SketchShards(v, 0); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

// TestMergeAllocs pins the merge hot path's allocation budget per family:
// a merge allocates the output sketch and bounded scratch, nothing
// proportional to repetition.
func TestMergeAllocs(t *testing.T) {
	v := intTestVector(t, 1<<20, 51, 300)
	half := v.NNZ() / 2
	// Measured: WMH/MH/KMV 4, TS 5, PS 6, JL 3, CS 1+reps rows+2.
	budgets := map[Method]float64{
		MethodWMH:         4,
		MethodMH:          4,
		MethodKMV:         4,
		MethodPS:          7,
		MethodTS:          6,
		MethodJL:          3,
		MethodCountSketch: 8,
	}
	for _, tc := range mergeableConfigs(96) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSketcher(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var a, b *Sketch
			switch tc.cfg.Method {
			case MethodWMH:
				shards, err := s.SketchShards(v, 2)
				if err != nil {
					t.Fatal(err)
				}
				a, b = shards[0], shards[1]
			default:
				if a, err = s.Sketch(v.Shard(0, half)); err != nil {
					t.Fatal(err)
				}
				if b, err = s.Sketch(v.Shard(half, v.NNZ())); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
			})
			if max := budgets[tc.cfg.Method]; allocs > max {
				t.Fatalf("merge allocates %v times per op, budget %v", allocs, max)
			}
		})
	}
}

// TestTableSketchMerge: partial bundles of row partitions merge into the
// full table's bundle byte-for-byte (MH: coordinate-keyed, exact), column
// partitions union their columns, and key-space mismatches fail.
func TestTableSketchMerge(t *testing.T) {
	keys := make([]uint64, 60)
	val := make([]float64, 60)
	for i := range keys {
		keys[i] = uint64(i*7 + 1)
		val[i] = float64(i%11 + 1)
	}
	cols := map[string][]float64{"v": val}
	full, err := NewTable("t", keys, cols)
	if err != nil {
		t.Fatal(err)
	}
	part := func(lo, hi int) *Table {
		sub := map[string][]float64{"v": val[lo:hi]}
		p, err := NewTable("t", keys[lo:hi], sub)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ts, err := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 5}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.SketchTable(full)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ts.SketchTable(part(0, 25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.SketchTable(part(25, 60))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("merged row partitions serialize differently from the full-table bundle")
	}

	// Column partitions: disjoint column sets union.
	t2, err := NewTable("t", keys, map[string][]float64{"w": val})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ts.SketchTable(t2)
	if err != nil {
		t.Fatal(err)
	}
	byCol, err := want.Merge(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := byCol.Columns(); len(got) != 2 || got[0] != "v" || got[1] != "w" {
		t.Fatalf("column-union merge columns = %v", got)
	}

	// Key-space mismatch fails loudly.
	other, err := NewTableSketcher(Config{Method: MethodMH, StorageWords: 60, Seed: 5}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := other.SketchTable(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.Merge(d); err == nil {
		t.Fatal("key-space mismatch merged silently")
	}
	if _, err := (*TableSketch)(nil).Merge(want); err == nil {
		t.Fatal("nil receiver merged silently")
	}
}
