package lsh

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/minhash"
	"repro/internal/vector"
	"repro/internal/wmh"
)

func TestParamsValidate(t *testing.T) {
	if (Params{Bands: 0, Rows: 4}).Validate() == nil {
		t.Fatal("Bands=0 accepted")
	}
	if (Params{Bands: 4, Rows: 0}).Validate() == nil {
		t.Fatal("Rows=0 accepted")
	}
	if _, err := New(Params{}); err == nil {
		t.Fatal("New accepted invalid params")
	}
	p := Params{Bands: 8, Rows: 4}
	if p.SignatureLen() != 32 {
		t.Fatalf("SignatureLen = %d", p.SignatureLen())
	}
	want := math.Pow(1.0/8, 0.25)
	if math.Abs(p.Threshold()-want) > 1e-12 {
		t.Fatalf("Threshold = %v, want %v", p.Threshold(), want)
	}
}

func TestInsertAndCandidatesBasics(t *testing.T) {
	ix, _ := New(Params{Bands: 4, Rows: 2})
	sig := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := ix.Insert(1, sig); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(1, sig); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := ix.Insert(2, sig[:4]); err == nil {
		t.Fatal("short signature accepted")
	}
	if _, err := ix.NewQuerier().Candidates(sig[:4], 0); err == nil {
		t.Fatal("short query accepted")
	}
	got, err := ix.NewQuerier().Candidates(sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Candidates = %v", got)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestIdenticalSignaturesAlwaysCandidates(t *testing.T) {
	ix, _ := New(Params{Bands: 2, Rows: 4})
	sig := []uint64{9, 9, 9, 9, 9, 9, 9, 9}
	ix.Insert(7, sig)
	got, _ := ix.NewQuerier().Candidates(sig, 0)
	if len(got) != 1 {
		t.Fatal("identical signature not retrieved")
	}
}

func TestDisjointSignaturesNotCandidates(t *testing.T) {
	ix, _ := New(Params{Bands: 4, Rows: 4})
	a := make([]uint64, 16)
	b := make([]uint64, 16)
	for i := range a {
		a[i] = uint64(i)
		b[i] = uint64(1000 + i)
	}
	ix.Insert(1, a)
	got, _ := ix.NewQuerier().Candidates(b, 0)
	if len(got) != 0 {
		t.Fatalf("disjoint signature retrieved: %v", got)
	}
}

func TestInsertCopiesSignature(t *testing.T) {
	ix, _ := New(Params{Bands: 1, Rows: 2})
	sig := []uint64{1, 2}
	ix.Insert(1, sig)
	sig[0] = 99
	got, _ := ix.NewQuerier().Candidates([]uint64{1, 2}, 0)
	if len(got) != 1 {
		t.Fatal("index aliased caller signature")
	}
}

// TestSCurveWithMinHash: high-Jaccard pairs are retrieved with high
// probability, low-Jaccard pairs rarely — the banding S-curve, driven end
// to end through MinHash signatures.
func TestSCurveWithMinHash(t *testing.T) {
	lp := Params{Bands: 16, Rows: 4} // threshold ≈ 0.5
	mp := minhash.Params{M: lp.SignatureLen(), Seed: 3}

	mk := func(lo, hi uint64) vector.Sparse {
		m := map[uint64]float64{}
		for i := lo; i < hi; i++ {
			m[i] = 1
		}
		v, _ := vector.FromMap(100000, m)
		return v
	}
	const trials = 60
	hit := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		p := mp
		p.Seed = uint64(trial)
		ix, _ := New(lp)
		base := mk(0, 300)
		sb, _ := minhash.New(base, p)
		if err := ix.Insert(0, sb.Signature()); err != nil {
			t.Fatal(err)
		}
		// J ≈ 0.85 (shift 25 of 300) and J ≈ 0.11 (shift 240 of 300).
		for name, shift := range map[string]uint64{"high": 25, "low": 240} {
			q := mk(shift, 300+shift)
			sq, _ := minhash.New(q, p)
			cands, err := ix.NewQuerier().Candidates(sq.Signature(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) > 0 {
				hit[name]++
			}
		}
	}
	if frac := float64(hit["high"]) / trials; frac < 0.9 {
		t.Errorf("high-similarity retrieval rate %.2f, want ≥ 0.9", frac)
	}
	if frac := float64(hit["low"]) / trials; frac > 0.15 {
		t.Errorf("low-similarity retrieval rate %.2f, want ≤ 0.15", frac)
	}
}

// TestWeightedRetrievalWithWMH: WMH signatures retrieve by *weighted*
// similarity — a pair sharing only heavy coordinates is found even though
// its unweighted support overlap is tiny.
func TestWeightedRetrievalWithWMH(t *testing.T) {
	lp := Params{Bands: 16, Rows: 2} // low threshold ≈ 0.25
	wp := wmh.Params{M: lp.SignatureLen(), Seed: 5, L: 1 << 20}

	rng := hashing.NewSplitMix64(9)
	// Heavy shared mass on 5 coordinates; 300 light non-shared ones.
	am := map[uint64]float64{}
	bm := map[uint64]float64{}
	for i := uint64(0); i < 5; i++ {
		am[i] = 50
		bm[i] = 50
	}
	for i := uint64(100); i < 400; i++ {
		am[i] = rng.Norm() * 0.05
	}
	for i := uint64(1000); i < 1300; i++ {
		bm[i] = rng.Norm() * 0.05
	}
	a, _ := vector.FromMap(10000, am)
	b, _ := vector.FromMap(10000, bm)
	if j := vector.Jaccard(a, b); j > 0.05 {
		t.Fatalf("test setup: unweighted Jaccard %v should be tiny", j)
	}

	retrieved := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := wp
		p.Seed = uint64(trial)
		ix, _ := New(lp)
		sa, err := wmh.New(a, p)
		if err != nil {
			t.Fatal(err)
		}
		ix.Insert(0, sa.Signature())
		sb, _ := wmh.New(b, p)
		cands, _ := ix.NewQuerier().Candidates(sb.Signature(), 0)
		if len(cands) > 0 {
			retrieved++
		}
	}
	if frac := float64(retrieved) / trials; frac < 0.9 {
		t.Errorf("weighted retrieval rate %.2f, want ≥ 0.9 (shared mass dominates)", frac)
	}
}

func TestEmptyWMHSignatureNil(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	s, _ := wmh.New(empty, wmh.Params{M: 8, Seed: 1, L: 1 << 12})
	if s.Signature() != nil {
		t.Fatal("empty sketch should have nil signature")
	}
}

// TestEmptyMHSignatureNil mirrors TestEmptyWMHSignatureNil for the
// unweighted family: an all-zero column must not emit a sentinel
// signature that lands every empty column in one shared bucket.
func TestEmptyMHSignatureNil(t *testing.T) {
	empty := vector.MustNew(100, nil, nil)
	s, err := minhash.New(empty, minhash.Params{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsEmpty() {
		t.Fatal("sketch of the zero vector should be empty")
	}
	if s.Signature() != nil {
		t.Fatal("empty sketch should have nil signature")
	}
}

// TestBandKeyMatchesMix pins the incremental band hash to the reference
// hashing.Mix chain bitwise, so the zero-alloc rewrite can never change
// bucket layout (and persisted expectations about co-bucketing hold).
func TestBandKeyMatchesMix(t *testing.T) {
	p := Params{Bands: 5, Rows: 3}
	rng := hashing.NewSplitMix64(42)
	sig := make([]uint64, p.SignatureLen())
	for i := range sig {
		sig[i] = rng.Uint64()
	}
	for b := 0; b < p.Bands; b++ {
		lo := b * p.Rows
		parts := append([]uint64{uint64(b)}, sig[lo:lo+p.Rows]...)
		if got, want := p.Key(b, sig), hashing.Mix(parts...); got != want {
			t.Fatalf("band %d: Key = %#x, Mix = %#x", b, got, want)
		}
	}
}

// TestQuerierZeroAlloc pins the query path allocation-free: band hashing
// and candidate gathering through a reused Querier must not allocate in
// the steady state.
func TestQuerierZeroAlloc(t *testing.T) {
	p := Params{Bands: 16, Rows: 4}
	ix, _ := New(p)
	rng := hashing.NewSplitMix64(7)
	sig := make([]uint64, p.SignatureLen())
	for id := 0; id < 64; id++ {
		for i := range sig {
			sig[i] = rng.Uint64n(8) // few distinct values: populated buckets
		}
		if err := ix.Insert(id, sig); err != nil {
			t.Fatal(err)
		}
	}
	q := ix.NewQuerier()
	query := make([]uint64, p.SignatureLen())
	for i := range query {
		query[i] = rng.Uint64n(8)
	}
	// Warm the scratch (first call may grow seen/out).
	if _, err := q.Candidates(query, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := q.Candidates(query, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Querier.Candidates allocates %.1f times per query, want 0", allocs)
	}
}

// TestMultiProbe: a probe budget of p probes exactly the first p bands —
// the candidate set grows monotonically with p and reaches the full
// Candidates set at p = Bands (0 and out-of-range budgets mean all).
func TestMultiProbe(t *testing.T) {
	p := Params{Bands: 8, Rows: 2}
	ix, _ := New(p)
	rng := hashing.NewSplitMix64(11)
	base := make([]uint64, p.SignatureLen())
	for i := range base {
		base[i] = rng.Uint64()
	}
	// Item i shares exactly band i with the query (other entries perturbed),
	// so probing the first k bands retrieves exactly items 0..k-1.
	for id := 0; id < p.Bands; id++ {
		sig := make([]uint64, len(base))
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		copy(sig[id*p.Rows:(id+1)*p.Rows], base[id*p.Rows:(id+1)*p.Rows])
		if err := ix.Insert(id, sig); err != nil {
			t.Fatal(err)
		}
	}
	q := ix.NewQuerier()
	for probes := 1; probes <= p.Bands; probes++ {
		got, err := q.Candidates(base, probes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != probes {
			t.Fatalf("probes=%d: %d candidates, want %d (%v)", probes, len(got), probes, got)
		}
		for _, id := range got {
			if id >= probes {
				t.Fatalf("probes=%d retrieved item %d, which only shares band %d", probes, id, id)
			}
		}
	}
	full, _ := q.Candidates(base, 0)
	if len(full) != p.Bands {
		t.Fatalf("probes=0 (all bands): %d candidates, want %d", len(full), p.Bands)
	}
	over, _ := q.Candidates(base, p.Bands+5)
	if len(over) != p.Bands {
		t.Fatalf("probes>Bands: %d candidates, want %d", len(over), p.Bands)
	}
}

// TestSCurveRetrievalRate measures the retrieval rate of Candidates
// against signatures whose entries match the query's independently with
// probability J — by construction the per-entry collision probability of
// minwise signatures at Jaccard J — and brackets it against the S-curve
// 1 − (1 − J^rows)^bands. Seeded and deterministic.
func TestSCurveRetrievalRate(t *testing.T) {
	p := Params{Bands: 8, Rows: 4}
	const items = 4000
	rng := hashing.NewSplitMix64(1234)
	query := make([]uint64, p.SignatureLen())
	for i := range query {
		query[i] = rng.Uint64()
	}
	for _, J := range []float64{0.95, 0.8, 0.6, 0.4, 0.2} {
		ix, _ := New(p)
		sig := make([]uint64, p.SignatureLen())
		for id := 0; id < items; id++ {
			for i := range sig {
				if rng.Float64() < J {
					sig[i] = query[i]
				} else {
					sig[i] = rng.Uint64()
				}
			}
			if err := ix.Insert(id, sig); err != nil {
				t.Fatal(err)
			}
		}
		cands, err := ix.NewQuerier().Candidates(query, 0)
		if err != nil {
			t.Fatal(err)
		}
		rate := float64(len(cands)) / items
		want := p.RetrievalProbability(J, 0)
		// Binomial noise at n=4000 is σ ≤ 0.008; 0.04 is a 5σ bracket.
		if math.Abs(rate-want) > 0.04 {
			t.Errorf("J=%.2f: retrieval rate %.3f, S-curve predicts %.3f", J, rate, want)
		}
		// The multi-probe budget follows the same curve with bands=probes.
		q := ix.NewQuerier()
		half, err := q.Candidates(query, p.Bands/2)
		if err != nil {
			t.Fatal(err)
		}
		halfRate := float64(len(half)) / items
		halfWant := p.RetrievalProbability(J, p.Bands/2)
		if math.Abs(halfRate-halfWant) > 0.04 {
			t.Errorf("J=%.2f probes=%d: retrieval rate %.3f, S-curve predicts %.3f",
				J, p.Bands/2, halfRate, halfWant)
		}
	}
}
