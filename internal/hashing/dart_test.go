package hashing

import (
	"math"
	"math/bits"
	"testing"
)

// dartMins drives the dart process the way a sketcher does: throw every
// block per round, keep per-sample minimum positions, stop once every
// sample has at least one dart (rounds ascend the value axis, so any dart
// finalizes its sample), and return the minima as dart values.
func dartMins(p *DartProcess, keys, ws []uint64) []float64 {
	best := make([]float64, p.M())
	for i := range best {
		best[i] = math.Inf(1)
	}
	missing := p.M()
	for round := 0; missing > 0; round++ {
		if round > 64 {
			panic("dartMins: runaway fallback rounds")
		}
		for b := range keys {
			ss, vs, _ := p.ThrowBlock(keys[b], ws[b], round)
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
	for i, nu := range best {
		best[i] = DartValue(nu)
	}
	return best
}

func TestThrowBlockPanicsOnBadWeight(t *testing.T) {
	p := NewDartProcess(4, 64)
	for _, w := range []uint64{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ThrowBlock(w=%d) did not panic", w)
				}
			}()
			p.ThrowBlock(1, w, 0)
		}()
	}
}

func TestThrowBlockDeterministic(t *testing.T) {
	p := NewDartProcess(64, 1<<12)
	q := NewDartProcess(64, 1<<12)
	for key := uint64(0); key < 50; key++ {
		s1, v1, _ := p.ThrowBlock(Mix(key), 1+key*80, 0)
		// Copy: the next ThrowBlock overwrites the scratch.
		s1c := append([]int32(nil), s1...)
		v1c := append([]float64(nil), v1...)
		s2, v2, _ := q.ThrowBlock(Mix(key), 1+key*80, 0)
		if len(s1c) != len(s2) {
			t.Fatalf("key %d: dart counts differ: %d vs %d", key, len(s1c), len(s2))
		}
		for d := range s2 {
			if s1c[d] != s2[d] || v1c[d] != v2[d] {
				t.Fatalf("key %d dart %d: (%d,%v) vs (%d,%v)", key, d, s1c[d], v1c[d], s2[d], v2[d])
			}
		}
	}
}

// TestThrowBlockSlotFilter pins the prefix relation coordination and the
// shared bundle walk rest on: the darts of a weight w' are exactly the
// darts of any larger weight w whose slot is ≤ w', in the same order and
// bitwise — including weights that end in a partial top cell, weights
// inside the base cell (which draws darts for every slot below 2^{base+1}
// and rejects those past w') and weights on either side of its edge.
func TestThrowBlockSlotFilter(t *testing.T) {
	const l = 1 << 20
	p := NewDartProcess(200, l)
	for key := uint64(0); key < 20; key++ {
		for round := 0; round < 3; round++ {
			const wide = l - 12345
			ss, vs, slots := p.ThrowBlock(Mix(key), wide, round)
			type dart struct {
				s    int32
				v    float64
				slot uint64
			}
			all := make([]dart, len(ss))
			for d := range ss {
				if slots[d] == 0 || slots[d] > wide {
					t.Fatalf("key %d round %d: slot %d outside [1, %d]", key, round, slots[d], wide)
				}
				all[d] = dart{ss[d], vs[d], slots[d]}
			}
			for _, w := range []uint64{1, 2, 3, 127, 128, 255, 256, 511, 512, 1000, 1 << 19, wide} {
				var want []dart
				for _, d := range all {
					if d.slot <= w {
						want = append(want, d)
					}
				}
				gs, gv, gslots := p.ThrowBlock(Mix(key), w, round)
				if len(gs) != len(want) {
					t.Fatalf("key %d round %d w %d: %d darts, want %d", key, round, w, len(gs), len(want))
				}
				for d := range want {
					if got := (dart{gs[d], gv[d], gslots[d]}); got != want[d] {
						t.Fatalf("key %d round %d w %d dart %d: %+v, want %+v", key, round, w, d, got, want[d])
					}
				}
			}
		}
	}
}

// TestThrowBlockCellVisits pins the walk's cost model: a throw visits the
// base cell and then the dyadic cells above it up to the one holding slot
// w, top − base + 1 cells, where the base cell is the largest run of low
// slots [1, 2^{base+1}) holding at most one dart on average. In the served
// configuration (m = 266, L = 2⁵⁰) a block holding 1/2000 of a vector's
// weight visits at most three cells, where a walk over every dyadic cell
// would visit forty.
func TestThrowBlockCellVisits(t *testing.T) {
	const m = 266
	const l = 1 << 50
	p := NewDartProcess(m, l)
	visits := func(w uint64, round int) int {
		before := p.cells
		p.ThrowBlock(Mix(w, uint64(round)), w, round)
		return p.cells - before
	}
	for round := 0; round < 2; round++ {
		if got := visits(1<<39, round); got > 3 {
			t.Errorf("round %d: a weight-2^39 throw visits %d cells, want ≤ 3", round, got)
		}
	}
	for round := 0; round < 3; round++ {
		rd := p.round(round)
		perSlot := float64(m) * p.budget * float64(uint64(1)<<uint(round)) / l
		if base := rd.base; perSlot*float64(uint64(1)<<uint(base+1)-1) > 1 || perSlot*float64(uint64(1)<<uint(base+2)-1) <= 1 {
			t.Fatalf("round %d: base %d is not the largest r with m·ν·(2^{r+1}−1) ≤ 1", round, base)
		}
		if c := rd.cells[0]; c.lo != 1 || c.span != uint64(1)<<uint(rd.base+1)-1 || c.slices != 1 {
			t.Fatalf("round %d: base cell %+v, want slots [1, 2^%d) in one slice", round, c, rd.base+1)
		}
		baseTop := uint64(1)<<uint(rd.base+1) - 1
		for _, w := range []uint64{1, baseTop, baseTop + 1, 1 << 39, 3 << 40, l} {
			want := max(bits.Len64(w)-1-rd.base, 0) + 1
			if got := visits(w, round); got != want {
				t.Errorf("round %d w %d: %d cells visited, want top − base + 1 = %d", round, w, got, want)
			}
		}
	}
}

// TestDartValuesFullPrecision: at the served L = 2⁵⁰ every dart value is of
// order 10⁻¹⁵, and the values of one vector's minima must still be
// distinct — a value formula that rounds to multiples of 2⁻⁵³ leaves only
// a few dozen distinct minima among 266, and vectors with disjoint
// supports then share minima by accident. A vector of 2000 equal blocks
// and a disjoint one must therefore share no minimum at all.
func TestDartValuesFullPrecision(t *testing.T) {
	const m = 266
	const l = 1 << 50
	const n = 2000
	keysA, keysB, ws := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range ws {
		keysA[i], keysB[i], ws[i] = Mix(1, uint64(i)), Mix(2, uint64(i)), l/n
	}
	a := dartMins(NewDartProcess(m, l), keysA, ws)
	b := dartMins(NewDartProcess(m, l), keysB, ws)
	distinct := map[float64]bool{}
	for i := range a {
		distinct[a[i]] = true
		if a[i] == b[i] {
			t.Errorf("sample %d: disjoint blocks share the minimum %v", i, a[i])
		}
	}
	if len(distinct) != m {
		t.Errorf("%d distinct minima among %d samples", len(distinct), m)
	}
}

// TestDartRoundZeroCount checks the calibration of the dart budget: the
// number of darts a full-weight block generates in round 0 is Poisson with
// mean m·τ (after the top-cell slot filter), which is what makes the whole
// sketch cost O(m log m) darts.
func TestDartRoundZeroCount(t *testing.T) {
	const m = 500
	const l = 1 << 10
	p := NewDartProcess(m, l)
	mean := float64(m) * p.budget
	const trials = 40
	total := 0
	for i := 0; i < trials; i++ {
		ss, _, _ := p.ThrowBlock(Mix(uint64(i)), l, 0)
		total += len(ss)
	}
	got := float64(total) / trials
	tol := 6 * math.Sqrt(mean/trials)
	if math.Abs(got-mean) > tol {
		t.Fatalf("round-0 darts per block: mean %.1f, want %.1f±%.1f", got, mean, tol)
	}
}

// TestDartMinMarginal checks the per-sample law: the minimum dart value of
// a vector with total slot weight L is distributed as the minimum of L iid
// U(0,1) — the same marginal the record process produces. The transform
// u = 1−(1−v)^L maps it to U(0,1); we check the first two moments.
func TestDartMinMarginal(t *testing.T) {
	const m = 2000
	const l = 1 << 9
	var sum, sumSq float64
	n := 0
	for seed := uint64(0); seed < 5; seed++ {
		p := NewDartProcess(m, l)
		// Three blocks with weights summing to l, like a rounded vector.
		keys := []uint64{Mix(seed, 1), Mix(seed, 2), Mix(seed, 3)}
		ws := []uint64{l / 2, l / 4, l / 4}
		for _, v := range dartMins(p, keys, ws) {
			u := 1 - math.Pow(1-v, l)
			sum += u
			sumSq += u * u
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if tol := 6 / math.Sqrt(12*float64(n)); math.Abs(mean-0.5) > tol {
		t.Errorf("transformed mean %.4f, want 0.5±%.4f", mean, tol)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("transformed variance %.4f, want %.4f", variance, 1.0/12)
	}
}

// TestDartSubsetConsistency is the first coordination invariant: a party
// with a smaller weight for the same block keeps an exact subset of the
// larger party's darts, so its per-sample minimum is never smaller, and
// the two minima coincide exactly when the larger party's argmin lies in
// the shared prefix — with probability wa/wb.
func TestDartSubsetConsistency(t *testing.T) {
	const m = 4000
	const l = 1 << 10
	const wa, wb = 300, 600
	pa := NewDartProcess(m, l)
	pb := NewDartProcess(m, l)
	key := Mix(0xdab)
	minsA := dartMins(pa, []uint64{key}, []uint64{wa})
	minsB := dartMins(pb, []uint64{key}, []uint64{wb})
	match := 0
	for i := range minsA {
		if minsA[i] < minsB[i] {
			t.Fatalf("sample %d: smaller prefix has smaller min %v < %v", i, minsA[i], minsB[i])
		}
		if minsA[i] == minsB[i] {
			match++
		}
	}
	got := float64(match) / m
	want := float64(wa) / wb
	tol := 6 * math.Sqrt(want*(1-want)/m)
	if math.Abs(got-want) > tol {
		t.Fatalf("collision rate %.4f, want %.4f±%.4f", got, want, tol)
	}
}

// TestDartMinComposition is the second coordination invariant: the minimum
// over a union of blocks equals the min of the per-block minima, bitwise —
// the same identity the record process satisfies across prefixes.
func TestDartMinComposition(t *testing.T) {
	const m = 600
	const l = 1 << 10
	k1, k2 := Mix(7), Mix(8)
	const w1, w2 = 700, 324
	m1 := dartMins(NewDartProcess(m, l), []uint64{k1}, []uint64{w1})
	m2 := dartMins(NewDartProcess(m, l), []uint64{k2}, []uint64{w2})
	joint := dartMins(NewDartProcess(m, l), []uint64{k1, k2}, []uint64{w1, w2})
	for i := range joint {
		if want := math.Min(m1[i], m2[i]); joint[i] != want {
			t.Fatalf("sample %d: joint min %v != min of parts %v", i, joint[i], want)
		}
	}
}

// TestDartArgminBlockProportional: the probability a given block attains
// the overall minimum is proportional to its weight (uniform sampling over
// active slots — Fact 5's conditional law).
func TestDartArgminBlockProportional(t *testing.T) {
	const m = 4000
	const l = 1 << 10
	const w1, w2 = 256, 768
	k1, k2 := Mix(21), Mix(22)
	m1 := dartMins(NewDartProcess(m, l), []uint64{k1}, []uint64{w1})
	m2 := dartMins(NewDartProcess(m, l), []uint64{k2}, []uint64{w2})
	wins2 := 0
	for i := range m1 {
		if m2[i] < m1[i] {
			wins2++
		}
	}
	got := float64(wins2) / m
	want := float64(w2) / (w1 + w2)
	tol := 6 * math.Sqrt(want*(1-want)/m)
	if math.Abs(got-want) > tol {
		t.Fatalf("block-2 win rate %.4f, want %.4f±%.4f", got, want, tol)
	}
}

// TestDartFallbackRounds forces the rare-miss path with a deliberately
// tiny budget: most samples get no round-0 dart and are filled by the
// doubled-budget fallback rounds; the marginal must stay the min-of-L-
// uniforms law (mean 1/(L+1)) and coordination must hold across parties
// that resolve in different rounds.
func TestDartFallbackRounds(t *testing.T) {
	const m = 1500
	const l = 256
	const budget = 0.05 // expect ~95% of samples to miss round 0
	key := Mix(0xfa11)
	p := NewDartProcessBudget(m, l, budget)
	// Round 0 alone must leave samples missing, or the test is vacuous.
	ss, _, _ := p.ThrowBlock(key, l, 0)
	seen := map[int32]bool{}
	for _, s := range ss {
		seen[s] = true
	}
	if len(seen) == m {
		t.Fatalf("budget %v filled every sample in round 0; fallback not exercised", budget)
	}
	var sum float64
	n := 0
	for seed := uint64(0); seed < 40; seed++ {
		mins := dartMins(NewDartProcessBudget(m, l, budget), []uint64{Mix(seed, 0xfa11)}, []uint64{l})
		for _, v := range mins {
			sum += v
			n++
		}
	}
	mean := sum / float64(n)
	want := 1.0 / float64(l+1)
	tol := 6 * want / math.Sqrt(float64(n))
	if math.Abs(mean-want) > tol {
		t.Fatalf("fallback-round mean %.6g, want %.6g±%.2g", mean, want, tol)
	}
	// Coordination across rounds: the subset invariant holds even when the
	// shorter prefix resolves in a later round than the longer one.
	minsA := dartMins(NewDartProcessBudget(m, l, budget), []uint64{key}, []uint64{l / 8})
	minsB := dartMins(NewDartProcessBudget(m, l, budget), []uint64{key}, []uint64{l})
	for i := range minsA {
		if minsA[i] < minsB[i] {
			t.Fatalf("sample %d: subset invariant broken across fallback rounds", i)
		}
	}
}

// TestDartThrowBlockZeroAllocs: the warm dart path must not allocate — the
// sketch builders rely on it.
func TestDartThrowBlockZeroAllocs(t *testing.T) {
	p := NewDartProcess(256, 1<<16)
	key := Mix(3)
	for round := 0; round < 3; round++ {
		p.ThrowBlock(key, 1<<15, round) // warm scratch across eager rounds
	}
	allocs := testing.AllocsPerRun(20, func() {
		p.ThrowBlock(key, 1<<15, 0)
		p.ThrowBlock(key, 999, 1)
		p.ThrowBlock(key, 1<<16, 2)
	})
	if allocs != 0 {
		t.Fatalf("warm ThrowBlock allocates %v times per run, want 0", allocs)
	}
}
