package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"sort"
	"testing"

	ipsketch "repro"
)

// built prepares a workload at smoke scale, ready to send.
func built(t *testing.T, name string, seed uint64) *workloadData {
	t.Helper()
	s, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	wd, err := prepare(s.scaled(0.02), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.finish(seed, 60); err != nil {
		t.Fatal(err)
	}
	return wd
}

// bodyHashes is the SHA-256 of every request body of a workload, in the
// order the daemon would see them.
func bodyHashes(wd *workloadData) [][32]byte {
	var hs [][32]byte
	for _, reqs := range [][]request{wd.ingest, wd.reads, wd.writes} {
		for _, r := range reqs {
			hs = append(hs, sha256.Sum256(r.payload()))
		}
	}
	return hs
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, s := range workloads {
		a, b, c := bodyHashes(built(t, s.Name, 7)), bodyHashes(built(t, s.Name, 7)), bodyHashes(built(t, s.Name, 8))
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d, %d and %d requests", s.Name, len(a), len(b), len(c))
		}
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two generations of seed 7", s.Name, i)
			}
			if a[i] == c[i] {
				same++
			}
		}
		// A DELETE has no body, so it hashes alike under every seed; nothing
		// else may.
		deletes := 0
		for _, r := range built(t, s.Name, 7).writes {
			if r.kind == opDelete {
				deletes++
			}
		}
		if same != deletes {
			t.Errorf("%s: %d of %d request bodies are the same under seeds 7 and 8, want the %d DELETEs", s.Name, same, len(a), deletes)
		}
	}
}

func TestLSHWorkloadSharesBytesWithFullScan(t *testing.T) {
	full, banded := built(t, "search_sketch", 3), built(t, "search_lsh", 3)
	if hashOf(full.ingest) != hashOf(banded.ingest) {
		t.Error("search_sketch and search_lsh ingest different corpora")
	}
	if hashBytes(full.queries) != hashBytes(banded.queries) {
		t.Error("search_sketch and search_lsh ask with different query sketches")
	}
	if hashOf(full.writes) != hashOf(banded.writes) {
		t.Error("search_sketch and search_lsh write different bodies")
	}
	if hashOf(full.reads) == hashOf(banded.reads) {
		t.Error("the lsh search requests carry no mode or probes")
	}
}

// The harness sketches with one builder per core; the daemon's ingest
// sketches with SketchTableChunked. The oracle, the merge re-push and the
// claim that a bundle PUT equals a raw PUT all need the two to agree to
// the byte.
func TestBundleMatchesDaemonSketch(t *testing.T) {
	wd := built(t, "search_sketch", 5)
	for i := 0; i < 8; i++ {
		chunked, err := wd.sketcher.SketchTableChunked(wd.tabs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := chunked.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wd.ingest[i].payload(), want) {
			t.Fatalf("table %d: builder bundle differs from the chunked sketch", i)
		}
	}
}

func TestPlantedOverlapLadder(t *testing.T) {
	s, _ := workloadByName("search_sketch")
	c := generate(s.scaled(0.02), 11)
	fam := c.families[0]
	q := map[uint64]bool{}
	for _, k := range fam.query.keys {
		q[k] = true
	}
	prev, first := -1, -1
	for m := 0; m < s.Members; m++ {
		tab := c.tables[fam.first+m]
		seen := map[uint64]bool{}
		shared := 0
		for _, k := range tab.keys {
			if seen[k] {
				t.Fatalf("member %d repeats key %d", m, k)
			}
			seen[k] = true
			if q[k] {
				shared++
			}
		}
		if shared <= prev {
			t.Fatalf("member %d shares %d keys, member %d shared %d: the ladder must rise", m, shared, m-1, prev)
		}
		if prev = shared; m == 0 {
			first = shared
		}
	}
	if first != s.Rows*2/100 || prev != s.Rows*70/100 {
		t.Errorf("ladder runs from %d to %d shared keys of %d, want 2%% to 70%%", first, prev, s.Rows)
	}
}

func TestMixedWriteSequence(t *testing.T) {
	wd := built(t, "ingest_mixed", 2)
	live := map[string]bool{}
	keys := map[string]bool{}
	for i, r := range wd.writes {
		want := [...]opKind{opPut, opPut, opPut, opMerge, opDelete}[i%5]
		if r.kind != want {
			t.Fatalf("op %d is %v, want %v", i, r.kind, want)
		}
		switch r.kind {
		case opPut:
			if live[r.name] {
				t.Fatalf("op %d puts %s twice", i, r.name)
			}
			live[r.name] = true
		case opDelete:
			if !live[r.name] {
				t.Fatalf("op %d deletes %s, which this sequence did not add or already deleted", i, r.name)
			}
			delete(live, r.name)
		case opMerge:
			head := string(r.wire[:r.body])
			if keys[head] {
				t.Fatalf("op %d reuses an Idempotency-Key", i)
			}
			keys[head] = true
		}
	}
	if wd.writesCycle {
		t.Error("a sequence that creates tables must not repeat")
	}
}

// The oracle joins the generated columns itself; the library's exact
// join must agree on every size and inner product, and so on the top ten.
func TestExactJoinMatchesLibrary(t *testing.T) {
	wd := built(t, "search_sketch", 9)
	o, err := newOracle(wd)
	if err != nil {
		t.Fatal(err)
	}
	for q := range wd.qtabs {
		type cand struct {
			colKey
			size float64
		}
		var cands []cand
		mine := wd.corp.queries[q].values()
		first := wd.corp.families[wd.corp.queries[q].family].first
		for m := first; m < first+wd.spec.Members; m++ {
			for _, col := range wd.spec.Cols {
				st, err := ipsketch.ExactJoinStats(wd.qtabs[q], queryCol, wd.tabs[m], col)
				if err != nil {
					t.Fatal(err)
				}
				size, ip := exactJoin(mine, wd.corp.tables[m], col)
				if float64(size) != st.Size || math.Abs(ip-st.InnerProduct) > 1e-9*(1+math.Abs(ip)) {
					t.Fatalf("query %d, %s.%s: size %d, inner product %v; the library has %v and %v", q, wd.tabs[m].Name(), col, size, ip, st.Size, st.InnerProduct)
				}
				cands = append(cands, cand{colKey{wd.tabs[m].Name(), col}, st.Size})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].size > cands[b].size })
		top := o.truth(q, mine)
		if len(top) != topK {
			t.Fatalf("query %d: %d columns in the truth, want %d", q, len(top), topK)
		}
		for _, c := range cands[:topK] {
			if !top[c.colKey] {
				t.Errorf("query %d: the exact join ranks %v (size %v) in the top %d, the oracle does not", q, c.colKey, c.size, topK)
			}
		}
	}
}
