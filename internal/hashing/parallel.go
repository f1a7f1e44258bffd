package hashing

import (
	"runtime"
	"sync"
)

// Workers returns the number of workers a job of n independent items should
// fan out to: GOMAXPROCS capped at n (and at least 1).
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelChunks splits [0, n) into one contiguous chunk per worker and
// runs fn(lo, hi) for each chunk. The sketchers use it to parallelize over
// independent samples: determinism is preserved because each sample
// derives its randomness from its own index, not from shared stream state.
// The callback sees its whole range at once, so it can keep per-chunk
// state (scratch buffers, running minima) without synchronization or
// per-item closure overhead. Small jobs run inline on the calling
// goroutine.
func ParallelChunks(n int, fn func(lo, hi int)) {
	ParallelWorkers(n, WorkerCount(n), func(_, lo, hi int) { fn(lo, hi) })
}

// ParallelWorkers is ParallelChunks with the worker ordinal exposed:
// fn(w, lo, hi) with w in [0, workers), each worker owning one contiguous
// chunk. The caller supplies workers (normally WorkerCount(n)) and can
// pre-size per-worker slots (e.g. a bounded result heap per worker) to
// exactly that count — the count is never re-derived internally, so a
// concurrent GOMAXPROCS change cannot desynchronize the two.
func ParallelWorkers(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n < workers {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// WorkerCount returns the number of chunks ParallelWorkers will split a
// job of n items into: Workers(n), except that small jobs (n < 16) run
// inline as a single chunk.
func WorkerCount(n int) int {
	if n < 16 {
		return 1
	}
	return Workers(n)
}

// FanOutWork is the size of one sketch fill — support entries × samples —
// from which a builder splits the fill's samples across workers
// (ParallelChunks) instead of running it inline. Below it the goroutines
// cost more than they save and the warm builder path must stay
// allocation-free; the choice reads only the work in hand, so the sketch
// bytes never depend on it.
const FanOutWork = 1 << 16
