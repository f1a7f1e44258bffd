package hashing

import (
	"sync/atomic"
	"testing"
)

func TestParallelCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 1000} {
		seen := make([]int32, n)
		ParallelChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	const n = 500
	par := make([]uint64, n)
	seq := make([]uint64, n)
	ParallelChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			par[i] = Mix(uint64(i), 42)
		}
	})
	for i := 0; i < n; i++ {
		seq[i] = Mix(uint64(i), 42)
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("parallel result differs at %d", i)
		}
	}
}

func TestParallelWorkersCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 100, 1001} {
		var hits []int32
		if n > 0 {
			hits = make([]int32, n)
		}
		workers := WorkerCount(n)
		seen := make([]int32, workers+1)
		ParallelWorkers(n, workers, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("n=%d: worker ordinal %d out of [0,%d)", n, w, workers)
			}
			atomic.AddInt32(&seen[min(w, workers)], 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, hits[i])
			}
		}
	}
}
