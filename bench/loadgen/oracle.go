package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	ipsketch "repro"
	"repro/service"
)

// oracle answers the workload's queries in process, over the sketches
// the harness built itself: the daemon's answers must match it bit for
// bit.
type oracle struct {
	wd     *workloadData
	ix     *ipsketch.SketchIndex
	byName map[string]int
}

func newOracle(wd *workloadData) (*oracle, error) {
	o := &oracle{wd: wd, ix: ipsketch.NewStrictSketchIndex(), byName: map[string]int{}}
	order := make([]int, len(wd.sks))
	for i := range order {
		order[i] = i
		o.byName[wd.sks[i].Name] = i
	}
	// Name order is the catalog's canonical scan order, which breaks ties.
	sort.Slice(order, func(a, b int) bool { return wd.sks[order[a]].Name < wd.sks[order[b]].Name })
	for _, i := range order {
		if err := o.ix.Add(wd.sks[i]); err != nil {
			return nil, err
		}
	}
	o.ix.BuildColumnar()
	return o, nil
}

type colKey struct{ table, column string }

// exactJoin is the one-to-one join of a query with a corpus table on
// their unique keys: its size and the inner product of the query column
// with one of the table's columns. The quiescent check asks this
// thousands of times, so it counts over the generated columns directly;
// TestExactJoinMatchesLibrary holds it to ipsketch.ExactJoinStats.
func exactJoin(q map[uint64]float64, t rawTable, col string) (size int, ip float64) {
	vals := t.cols[col]
	for i, k := range t.keys {
		if v, shared := q[k]; shared {
			size++
			ip += v * vals[i]
		}
	}
	return size, ip
}

func (q query) values() map[uint64]float64 {
	m := make(map[uint64]float64, len(q.table.keys))
	for i, k := range q.table.keys {
		m[k] = q.table.cols[queryCol][i]
	}
	return m
}

// truth is the exact top-k of one query by true join size, ordered like
// the daemon orders estimates: size descending, then table, then column.
// Tables outside the family share only chance keys with the query, so the
// planted members are the whole candidate set.
func (o *oracle) truth(q int, mine map[uint64]float64) map[colKey]bool {
	wd := o.wd
	type cand struct {
		colKey
		size int
	}
	var cands []cand
	first := wd.corp.families[wd.corp.queries[q].family].first
	for _, t := range wd.corp.tables[first : first+wd.spec.Members] {
		size, _ := exactJoin(mine, t, queryCol) // the size is the keys', the same for every column
		for _, col := range wd.spec.Cols {
			cands = append(cands, cand{colKey{t.name, col}, size})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		if x.size != y.size {
			return x.size > y.size
		}
		if x.table != y.table {
			return x.table < y.table
		}
		return x.column < y.column
	})
	top := map[colKey]bool{}
	for _, c := range cands[:min(topK, len(cands))] {
		top[c.colKey] = true
	}
	return top
}

func norm(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

// verifyResult is the quiescent check of every query, once.
type verifyResult struct {
	recall    float64  // mean over queries of |returned ∩ exact top-k| / k
	ipErr     float64  // median over returned hits of |est − true| / (‖a‖‖b‖)
	attempted int      // queries sent
	failed    int      // non-200, transport errors and oracle mismatches
	ref       [][]byte // the daemon's answer per query, for the measured phases
	firstBad  string
	recovery  float64 // s the checked incarnation took to boot
}

func (o *oracle) verify(c *conn) (verifyResult, error) {
	wd := o.wd
	var res verifyResult
	var ipErrs []float64
	recallSum := 0.0
	fail := func(format string, args ...any) {
		res.failed++
		if res.firstBad == "" {
			res.firstBad = fmt.Sprintf(format, args...)
		}
	}
	for q, req := range wd.reads {
		res.attempted++
		r, err := c.do(req.wire)
		res.ref = append(res.ref, append([]byte(nil), r.body...))
		if err != nil || r.status != 200 {
			fail("query %d: status %d, error %v: %s", q, r.status, err, r.body)
			continue
		}
		var got service.SearchResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			fail("query %d: undecodable answer: %v", q, err)
			continue
		}
		if bad := o.mismatch(q, got.Results); bad != "" {
			fail("query %d: %s", q, bad)
		}
		mine := wd.corp.queries[q].values()
		top := o.truth(q, mine)
		hit := 0
		qNorm := norm(wd.corp.queries[q].table.cols[queryCol])
		for _, h := range got.Results {
			if top[colKey{h.Table, h.Column}] {
				hit++
			}
			i, ok := o.byName[h.Table]
			if !ok {
				fail("query %d: unknown table %q in the answer", q, h.Table)
				continue
			}
			_, ip := exactJoin(mine, wd.corp.tables[i], h.Column)
			ipErrs = append(ipErrs, math.Abs(float64(h.Stats.InnerProduct)-ip)/(qNorm*norm(wd.corp.tables[i].cols[h.Column])))
		}
		recallSum += float64(hit) / float64(len(top))
	}
	res.recall = recallSum / float64(len(wd.reads))
	res.ipErr = median(ipErrs)
	return res, nil
}

// mismatch compares one answer with the in-process search over the same
// sketches. A full scan must return the same (table, column) sequence
// with scores equal by their bits. A banded search may miss candidates,
// but whatever it returns it rescored exactly, so each hit's score must
// equal the full scan's score of that column.
func (o *oracle) mismatch(q int, got []service.SearchHit) string {
	k := topK
	if o.wd.spec.LSH {
		k = -1
	}
	want, _, err := o.ix.SearchTopKStats(o.wd.qsks[q], queryCol, rankBy, 0, k)
	if err != nil {
		return "oracle search: " + err.Error()
	}
	if o.wd.spec.LSH {
		full := make(map[colKey]float64, len(want))
		for _, w := range want {
			full[colKey{w.Table, w.Column}] = w.Score
		}
		for i, h := range got {
			s, ok := full[colKey{h.Table, h.Column}]
			if !ok || math.Float64bits(s) != math.Float64bits(float64(h.Score)) {
				return fmt.Sprintf("hit %d (%s.%s) scored %v, the full scan scores it %v", i, h.Table, h.Column, float64(h.Score), s)
			}
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, the oracle has %d", len(got), len(want))
	}
	for i, h := range got {
		w := want[i]
		if h.Table != w.Table || h.Column != w.Column || math.Float64bits(float64(h.Score)) != math.Float64bits(w.Score) {
			return fmt.Sprintf("hit %d is %s.%s=%v, the oracle has %s.%s=%v", i, h.Table, h.Column, float64(h.Score), w.Table, w.Column, w.Score)
		}
	}
	return ""
}
