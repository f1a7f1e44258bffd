package ipsketch

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/hashing"
)

func batchTestVectors(t testing.TB, n int) []Vector {
	t.Helper()
	out := make([]Vector, 0, n)
	rng := hashing.NewSplitMix64(31)
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			// Mix in empty and tiny vectors to exercise edge paths.
			v, err := NewVector(10000, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
			continue
		}
		pp := datagen.PaperPairParams(0.1, rng.Uint64())
		pp.NNZ = 50 + i%200
		a, _, err := datagen.SyntheticPair(pp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestSketchAllMatchesSketch: for every method, SketchAll must produce
// exactly the sketches Sketch produces, in order (batching changes the
// schedule, never the output). Verified by cross-estimating each batch
// sketch against its one-at-a-time twin: identical sketches estimate
// identical values, and incompatible ones error.
func TestSketchAllMatchesSketch(t *testing.T) {
	vs := batchTestVectors(t, 23)
	for _, m := range Methods() {
		cfg := Config{Method: m, StorageWords: 120, Seed: 7}
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SketchAll(vs)
		if err != nil {
			t.Fatalf("%v: SketchAll: %v", m, err)
		}
		if len(batch) != len(vs) {
			t.Fatalf("%v: got %d sketches, want %d", m, len(batch), len(vs))
		}
		for i, v := range vs {
			single, err := s.Sketch(v)
			if err != nil {
				t.Fatal(err)
			}
			eBatch, err := Estimate(batch[i], single)
			if err != nil {
				t.Fatalf("%v vec %d: batch sketch incompatible with single: %v", m, i, err)
			}
			eSingle, err := Estimate(single, single)
			if err != nil {
				t.Fatal(err)
			}
			if eBatch != eSingle {
				t.Fatalf("%v vec %d: self-estimate %v via batch sketch, %v via single",
					m, i, eBatch, eSingle)
			}
		}
	}
}

// TestSketchAllDart: the batch path builds the dart construction, bitwise
// identical to one-at-a-time sketches, including of the golden vector
// under the golden configuration.
func TestSketchAllDart(t *testing.T) {
	vs := append(batchTestVectors(t, 4), goldenVector(t))
	dart, err := NewSketcher(Config{Method: MethodWMH, StorageWords: 64, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	db, err := dart.SketchAll(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		ds, err := dart.Sketch(v)
		if err != nil {
			t.Fatal(err)
		}
		batch, single := mustMarshal(t, db[i]), mustMarshal(t, ds)
		if !bytes.Equal(batch, single) {
			t.Fatalf("vector %d: dart batch sketch differs from single sketch", i)
		}
	}
}

func mustMarshal(t *testing.T, sk *Sketch) []byte {
	t.Helper()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchErrors: the batch surface rejects a non-positive shard count on
// both of SketchShards' paths (WMH's family shards, and support slicing
// for the other mergeable methods) before it dispatches, and an empty
// batch sketches to an empty result.
func TestBatchErrors(t *testing.T) {
	v := batchTestVectors(t, 1)[0]
	for _, m := range []Method{MethodWMH, MethodMH} {
		s, err := NewSketcher(Config{Method: m, StorageWords: 150, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, -1} {
			if _, err := s.SketchShards(v, n); err == nil {
				t.Errorf("%v: SketchShards accepted %d shards", m, n)
			}
		}
		out, err := s.SketchAll(nil)
		if err != nil || len(out) != 0 {
			t.Errorf("%v: SketchAll(nil) = %d sketches, %v; want none and no error", m, len(out), err)
		}
	}
}

// TestBatchIngestSpeedupSmoke is the CI perf gate for both parallelism
// axes of bulk ingest: at GOMAXPROCS=N, SketchAll must be at least 2×
// faster than the same workload at GOMAXPROCS=1 for a many-vector batch
// (vector-level fan-out), and measurably faster for a two-vector batch
// that runs on one SketchAll worker (the builder's per-sample fan-out) —
// so neither axis can fall to a serial loop unnoticed. Opt-in via
// IPSKETCH_BENCH_SMOKE=1: wall-clock assertions do not belong in the
// default `go test` run.
func TestBatchIngestSpeedupSmoke(t *testing.T) {
	if os.Getenv("IPSKETCH_BENCH_SMOKE") == "" {
		t.Skip("set IPSKETCH_BENCH_SMOKE=1 to run the batch ingest gate")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 || runtime.NumCPU() < 4 {
		t.Skipf("GOMAXPROCS=%d, NumCPU=%d: the ≥2× gate needs at least 4 real cores", procs, runtime.NumCPU())
	}
	run := func(s *Sketcher, vs []Vector) time.Duration {
		// One warm pass populates builder pools and per-CPU state.
		if _, err := s.SketchAll(vs); err != nil {
			t.Fatal(err)
		}
		const reps = 3
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := s.SketchAll(vs); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	gate := func(label string, cfg Config, vs []Vector, floor float64) {
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parallel := run(s, vs)
		runtime.GOMAXPROCS(1)
		serial := run(s, vs)
		runtime.GOMAXPROCS(procs)
		speedup := float64(serial) / float64(parallel)
		t.Logf("%s: serial %v, parallel@%d %v, speedup %.1f×", label, serial, procs, parallel, speedup)
		if speedup < floor {
			t.Errorf("%s: batch ingest only %.2f× faster than serial, want ≥%v×", label, speedup, floor)
		}
	}
	// Many-vector batch: vector-level fan-out must scale ≥2×.
	batch := make([]Vector, 4*procs)
	for i := range batch {
		batch[i] = intTestVector(t, 1<<22, uint64(300+i), 4000)
	}
	gate("batch", Config{Method: MethodMH, StorageWords: 400, Seed: 9}, batch, 2)
	// Two huge vectors: only the builder's per-sample fan-out can use the
	// pool.
	pair := []Vector{
		intTestVector(t, 1<<24, 501, 120000),
		intTestVector(t, 1<<24, 502, 120000),
	}
	gate("pair", Config{Method: MethodMH, StorageWords: 400, Seed: 9}, pair, 1.5)
}
