package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/service"
)

// The bounds in BENCHMARK.json were derived at these repetition counts
// (bench/NOISE.md), so they are not flags. Only the smoke tests run fewer.
const (
	measuredPasses = 6 // fresh incarnations measured per run
	timedSetUps    = 3 // repetitions of the set-up; setup_s is their median
)

// options are the knobs of one run. Only seed and workload change what
// is measured; seconds changes how long it is measured.
type options struct {
	seed    uint64
	seconds float64 // measured time of one run, split evenly over the passes
	passes  int     // measuredPasses; each timing reported is the best pass's statistic (see aggregate)
	setUps  int     // timedSetUps
	scale   float64 // corpus size multiplier (smoke runs)
	trace   bool
	sketchd string // daemon binary
	workDir string // scratch root, inside the checkout
	outDir  string // where span files go
	root    string // repository root
	verbose bool   // print every pass and set-up to standard error
}

// stageClock returns a function that, under -v, prints how long the
// stage just finished took.
func (o options) stageClock() func(stage string) {
	last := time.Now()
	return func(stage string) {
		if o.verbose {
			fmt.Fprintf(os.Stderr, "%s: %.3f s\n", stage, time.Since(last).Seconds())
		}
		last = time.Now()
	}
}

// minPhaseOps is the floor on operations in a measured phase: p95 needs
// 200 samples to leave ten beyond it.
const minPhaseOps = 200

// readShare is the part of a pass's time budget given to the read phase;
// the write phase gets the rest.
const readShare = 0.6

// incarnate starts a daemon on a scratch copy of a data directory (an
// empty one when from is ""). stop kills the daemon and removes the copy.
func incarnate(o options, s spec, from, pattern string) (d *daemon, dir string, stop func(), err error) {
	if dir, err = cleanup.tempDir(o.workDir, pattern); err != nil {
		return nil, "", nil, err
	}
	if from != "" {
		if err := copyTree(from, dir); err != nil {
			cleanup.removeDir(dir)
			return nil, "", nil, err
		}
	}
	if d, err = startDaemon(o.sketchd, append(s.daemonFlags(), dataFlags(dir)...)); err != nil {
		cleanup.removeDir(dir)
		return nil, "", nil, err
	}
	return d, dir, func() { d.kill(); cleanup.removeDir(dir) }, nil
}

// setUp runs one timed set-up: start an empty daemon, ingest the corpus
// through it, checkpoint, kill -9. What is left in dir is the pristine
// state every incarnation starts from.
func setUp(o options, wd *workloadData) (dir string, took time.Duration, err error) {
	start := time.Now()
	d, dir, _, err := incarnate(o, wd.spec, "", "pristine-")
	if err != nil {
		return "", 0, err
	}
	defer d.kill()
	c, err := dial(d.addr)
	if err != nil {
		return "", 0, err
	}
	defer c.close()
	expect200 := func(what string, wire []byte) error {
		r, err := c.do(wire)
		if err != nil || r.status != 200 {
			return fmt.Errorf("set-up: %s: status %d, error %v: %s", what, r.status, err, r.body)
		}
		return nil
	}
	for i, req := range wd.ingest {
		if i == wd.checkpointAt() {
			if err := expect200("snapshot", post("/snapshot")); err != nil {
				return "", 0, err
			}
		}
		if err := expect200("PUT "+req.name, req.wire); err != nil {
			return "", 0, err
		}
	}
	if wd.checkpointAt() == len(wd.ingest) {
		if err := expect200("snapshot", post("/snapshot")); err != nil {
			return "", 0, err
		}
	}
	d.kill()
	return dir, time.Since(start), nil
}

// phase is what one client measured in one phase of one pass.
type phase struct {
	ms        []float64 // wire latency per operation
	kinds     []opKind  // what each entry of ms was
	wall      time.Duration
	attempted int
	failed    int
	firstBad  string
}

func (p *phase) note(bad string) {
	p.failed++
	if p.firstBad == "" {
		p.firstBad = bad
	}
}

// include counts another phase's operations and failures in p without
// its latencies: the warm-up can fail a run but is in no sample.
func (p *phase) include(warm phase) {
	p.attempted += warm.attempted
	p.failed += warm.failed
	if p.firstBad == "" {
		p.firstBad = warm.firstBad
	}
}

// checker inspects a reply off the clock and describes what is wrong
// with it, or returns "".
type checker func(req *request, r reply) string

// drive issues reqs in order starting at from, wrapping around when
// cycle is set, until the time budget is spent and minOps are done (or a
// sequence that cannot repeat runs out). Replies are checked between
// operations, after the clock has stopped. It returns the index of the
// next request.
func drive(c *conn, reqs []request, from int, cycle bool, budget time.Duration, minOps int, check checker, tr *tracer, name string) (phase, int) {
	var p phase
	start := time.Now()
	i := from
	for {
		if !cycle && i >= len(reqs) {
			break
		}
		if p.attempted >= minOps && time.Since(start) >= budget {
			break
		}
		req := &reqs[i%len(reqs)]
		r, err := c.do(req.wire)
		p.attempted++
		tr.add(name, 0, i, r.start, r.took)
		if err != nil {
			p.note(fmt.Sprintf("%s %d: %v", req.kind, i, err))
		} else {
			p.ms = append(p.ms, float64(r.took.Nanoseconds())/1e6)
			p.kinds = append(p.kinds, req.kind)
			if bad := check(req, r); bad != "" {
				p.note(fmt.Sprintf("%s %d: %s", req.kind, i, bad))
			}
		}
		i++
	}
	p.wall = time.Since(start)
	return p, i
}

// checkStatic holds a search to the byte-identical answer the quiescent
// check verified: the catalog does not change in these workloads.
func checkStatic(ref [][]byte) checker {
	return func(req *request, r reply) string {
		if r.status != 200 {
			return fmt.Sprintf("status %d: %s", r.status, r.body)
		}
		if !bytes.Equal(r.body, ref[req.query]) {
			return "answer differs from the verified answer of the same query"
		}
		return ""
	}
}

// checkShape is the search check beside a concurrent writer, where the
// right answer depends on what has been published so far.
func checkShape(req *request, r reply) string {
	if r.status != 200 {
		return fmt.Sprintf("status %d: %s", r.status, r.body)
	}
	var got service.SearchResponse
	if err := json.Unmarshal(r.body, &got); err != nil {
		return "undecodable answer: " + err.Error()
	}
	if len(got.Results) != topK {
		return fmt.Sprintf("%d hits, want %d", len(got.Results), topK)
	}
	return ""
}

func checkWrite(req *request, r reply) string {
	if r.status != 200 {
		return fmt.Sprintf("status %d: %s", r.status, r.body)
	}
	switch req.kind {
	case opPut:
		var got service.PutResponse
		if err := json.Unmarshal(r.body, &got); err != nil || got.Table != req.name {
			return fmt.Sprintf("PUT %s acknowledged as %q (%v)", req.name, got.Table, err)
		}
	case opMerge:
		var got service.MergeResponse
		if err := json.Unmarshal(r.body, &got); err != nil || !got.Merged || r.replay {
			return fmt.Sprintf("merge into %s: merged=%v replayed=%v (%v)", req.name, got.Merged, r.replay, err)
		}
	case opDelete:
		var got service.DeleteResponse
		if err := json.Unmarshal(r.body, &got); err != nil || !got.Removed {
			return fmt.Sprintf("DELETE %s removed=%v (%v)", req.name, got.Removed, err)
		}
	}
	return ""
}

// pass is one incarnation, measured.
type pass struct {
	recovery     float64 // s
	reads        phase
	writes       phase
	wall         float64 // s of measured time: read phase plus write phase, or the concurrent phase
	rssPeakMB    float64
	cpuSeconds   float64 // daemon CPU over the measured phases
	stealSeconds float64 // CPU time the hypervisor took from this VM over the measured phases
	probe        *probe  // traced pass only
	heapReadyMB  float64 // traced pass only
}

func (p *pass) ops() int { return p.reads.attempted + p.writes.attempted }

// runPass copies the pristine state, starts a daemon on it, warms it up,
// measures, and kills it.
func runPass(o options, wd *workloadData, pristine string, ref [][]byte, tr *tracer) (*pass, error) {
	d, _, stop, err := incarnate(o, wd.spec, pristine, "pass-")
	if err != nil {
		return nil, err
	}
	defer stop()
	p := &pass{recovery: d.boot.Seconds()}
	rc, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	if tr != nil {
		st, err := statsz(rc)
		if err != nil {
			return nil, err
		}
		p.heapReadyMB = float64(st.HeapBytes) / (1 << 20)
	}

	readCheck := checkStatic(ref)
	if wd.spec.Mixed {
		readCheck = checkShape
	}
	// Warm-up: same requests, same checks, no clock. A failure here is a
	// failure of the run.
	warmR, nextRead := drive(rc, wd.reads, 0, true, 0, warmSearches, readCheck, nil, "")
	warmW, nextWrite := drive(rc, wd.writes, 0, wd.writesCycle, 0, warmWrites, checkWrite, nil, "")

	budget := time.Duration(o.seconds / float64(o.passes) * float64(time.Second))
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	steal0 := hostSteal()
	if wd.spec.Mixed {
		wc, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer wc.close()
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.reads, _ = drive(rc, wd.reads, nextRead, true, budget, minPhaseOps, readCheck, tr, "e2e.search")
		}()
		go func() {
			defer wg.Done()
			p.writes, _ = drive(wc, wd.writes, nextWrite, wd.writesCycle, budget, minPhaseOps, checkWrite, tr, "e2e.write")
		}()
		wg.Wait()
		p.wall = time.Since(start).Seconds()
	} else {
		// Reads alone, then writes alone: interleaving them makes each
		// search's latency depend on how recently a shard was republished.
		readBudget := time.Duration(float64(budget) * readShare)
		p.reads, _ = drive(rc, wd.reads, nextRead, true, readBudget, minPhaseOps, readCheck, tr, "e2e.search")
		p.writes, _ = drive(rc, wd.writes, nextWrite, wd.writesCycle, budget-readBudget, minPhaseOps, checkWrite, tr, "e2e.write")
		p.wall = (p.reads.wall + p.writes.wall).Seconds()
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpuSeconds = cpu1 - cpu0
	p.stealSeconds = hostSteal() - steal0
	if p.rssPeakMB, err = d.rssPeakMB(); err != nil {
		return nil, err
	}
	if tr != nil {
		if p.probe, err = probeDaemon(d, rc, wd); err != nil {
			return nil, err
		}
	}
	p.reads.include(warmR)
	p.writes.include(warmW)
	return p, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: what the last line of output
// carries, plus the identity of what was run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// FailRatio is failed / attempted. It is 0 on every accepted run, so it
	// is a field of the result and not a bounded metric.
	FailRatio float64 `json:"fail_ratio"`
	// SHA-256 of what was sent, in order: the ingest bodies, the query
	// tables (without the search parameters around them), the write bodies.
	CorpusSHA string   `json:"corpus_sha256"`
	QuerySHA  string   `json:"query_sha256"`
	WriteSHA  string   `json:"write_sha256"`
	FirstBad  string   `json:"first_failure,omitempty"`
	Identity  []string `json:"identity,omitempty"`
	Meta      meta     `json:"meta"`
}

// The end-to-end metrics, in report order. Every workload emits all of
// them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"recovery_s", "s"},
	{"rss_peak_mb", "MB"},
	{"disk_mb", "MB"},
	{"recall_at_10", "ratio"},
	{"ip_err_scaled_p50", "ratio"},
}

// runWorkload is one whole run: set-ups, the quiescent check, the
// measured passes, and with tracing the per-layer replay.
func runWorkload(o options, s spec) (*runResult, error) {
	s = s.scaled(o.scale)
	res := &runResult{Workload: s.Name, Seed: o.seed, Trace: o.trace, Metrics: map[string]metric{}, Meta: collectMeta(o, s)}

	stage := o.stageClock()
	wd, err := prepare(s, o.seed)
	if err != nil {
		return nil, err
	}
	stage("prepare")
	var pristine string
	var setUps []float64
	for i := 0; i < o.setUps; i++ {
		if pristine != "" {
			cleanup.removeDir(pristine)
		}
		var took time.Duration
		if pristine, took, err = setUp(o, wd); err != nil {
			return nil, err
		}
		setUps = append(setUps, took.Seconds())
		if o.verbose {
			fmt.Fprintf(os.Stderr, "set-up %d: %.4f s\n", i, took.Seconds())
		}
	}
	defer cleanup.removeDir(pristine)
	stage("set-ups")
	budget := o.seconds / float64(o.passes)
	// The mixed writer cannot repeat itself; give it a sequence no daemon
	// will exhaust (one operation per 1.5 ms of its budget).
	if err := wd.finish(o.seed, warmWrites+minPhaseOps+int(budget*650)); err != nil {
		return nil, err
	}
	res.CorpusSHA, res.QuerySHA, res.WriteSHA = hashOf(wd.ingest), hashBytes(wd.queries), hashOf(wd.writes)
	stage("encode queries and writes")
	disk, err := treeBytes(pristine)
	if err != nil {
		return nil, err
	}

	orc, err := newOracle(wd)
	if err != nil {
		return nil, err
	}
	ver, err := verifyPristine(o, wd, pristine, orc)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.FirstBad = ver.attempted, ver.failed, ver.firstBad
	stage("quiescent check")
	tally := func(p *pass) {
		res.Attempted += p.ops()
		res.Failed += p.reads.failed + p.writes.failed
		for _, bad := range []string{p.reads.firstBad, p.writes.firstBad} {
			if res.FirstBad == "" {
				res.FirstBad = bad
			}
		}
	}

	if o.trace {
		if err := tracedRun(o, wd, pristine, ver, res, tally); err != nil {
			return nil, err
		}
	} else {
		var passes []*pass
		for i := 0; i < o.passes; i++ {
			p, err := runPass(o, wd, pristine, ver.ref, nil)
			if err != nil {
				return nil, err
			}
			tally(p)
			passes = append(passes, p)
			if o.verbose {
				sp50, _ := percentile(p.reads.ms, 50)
				sp95, _ := percentile(p.reads.ms, 95)
				wp50, _ := percentile(p.writes.ms, 50)
				wp95, _ := percentile(p.writes.ms, 95)
				fmt.Fprintf(os.Stderr, "pass %d: recovery %.4f s, search p50 %.4f p95 %.4f ms (%d), write p50 %.4f p95 %.4f ms (%d), wall %.3f s, rss %.1f MB, cpu %.2f s, steal %.2f s\n",
					i, p.recovery, sp50, sp95, len(p.reads.ms), wp50, wp95, len(p.writes.ms), p.wall, p.rssPeakMB, p.cpuSeconds, p.stealSeconds)
			}
		}
		// Every incarnation that started from the pristine bytes is a
		// recovery sample, the quiescent check's too.
		recoveries := []float64{ver.recovery}
		for _, p := range passes {
			recoveries = append(recoveries, p.recovery)
		}
		if recoveries, err = moreRecoveries(o, wd, pristine, recoveries); err != nil {
			return nil, err
		}
		agg, err := aggregate(passes, recoveries)
		if err != nil {
			return nil, err
		}
		agg["setup_s"] = median(setUps)
		agg["disk_mb"] = float64(disk) / (1 << 20)
		agg["recall_at_10"] = ver.recall
		agg["ip_err_scaled_p50"] = ver.ipErr
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{agg[m.name], m.unit}
		}
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// verifyPristine is the quiescent check, on an incarnation of its own
// that serves nothing else.
func verifyPristine(o options, wd *workloadData, pristine string, orc *oracle) (verifyResult, error) {
	d, _, stop, err := incarnate(o, wd.spec, pristine, "verify-")
	if err != nil {
		return verifyResult{}, err
	}
	defer stop()
	c, err := dial(d.addr)
	if err != nil {
		return verifyResult{}, err
	}
	defer c.close()
	res, err := orc.verify(c)
	res.recovery = d.boot.Seconds()
	return res, err
}

// A recovery of a few hundredths of a second is mostly process start-up
// and scheduling luck; the fastest of a handful does not repeat. Small
// corpora are therefore booted again, and only booted, until the samples
// add up to minRecoverySeconds or there are maxRecoveries of them.
const (
	minRecoverySeconds = 1.5
	maxRecoveries      = 30
)

func moreRecoveries(o options, wd *workloadData, pristine string, have []float64) ([]float64, error) {
	total := 0.0
	for _, r := range have {
		total += r
	}
	for total < minRecoverySeconds && len(have) < maxRecoveries {
		d, _, stop, err := incarnate(o, wd.spec, pristine, "boot-")
		if err != nil {
			return nil, err
		}
		stop()
		have = append(have, d.boot.Seconds())
		total += d.boot.Seconds()
	}
	return have, nil
}

// aggregate turns the passes into the timing metrics. Each pass yields
// its own statistic (its p50, its p95, its operations per second); the
// run reports the best pass for each.
//
// Best, not median: on a shared host interference only ever adds time, in
// bursts that last seconds, so the least-disturbed pass is the closest a
// run gets to the cost of the code itself; bench/NOISE.md has the
// comparison with the median over passes. Memory is not a time and its
// noise has two sides, so it stays a median.
func aggregate(passes []*pass, recoveries []float64) (map[string]float64, error) {
	cols := map[string][]float64{"recovery_s": recoveries}
	for i, p := range passes {
		for _, q := range []struct {
			name string
			xs   []float64
			pct  float64
		}{
			{"search_p50_ms", p.reads.ms, 50},
			{"search_p95_ms", p.reads.ms, 95},
			{"write_p50_ms", p.writes.ms, 50},
			{"write_p95_ms", p.writes.ms, 95},
		} {
			v, err := percentile(q.xs, q.pct)
			if err != nil {
				return nil, fmt.Errorf("pass %d, %s: %w", i, q.name, err)
			}
			cols[q.name] = append(cols[q.name], v)
		}
		measured := len(p.reads.ms) + len(p.writes.ms)
		cols["throughput_ops_s"] = append(cols["throughput_ops_s"], float64(measured)/p.wall)
		cols["rss_peak_mb"] = append(cols["rss_peak_mb"], p.rssPeakMB)
	}
	out := map[string]float64{}
	for name, xs := range cols {
		switch name {
		case "rss_peak_mb":
			out[name] = median(xs)
		case "throughput_ops_s":
			out[name] = slices.Max(xs)
		default:
			out[name] = slices.Min(xs)
		}
	}
	return out, nil
}

// statsz reads the daemon's /statsz.
func statsz(c *conn) (service.StatsResponse, error) {
	var st service.StatsResponse
	r, err := c.do(get("/statsz"))
	if err != nil || r.status != 200 {
		return st, fmt.Errorf("/statsz: status %d, error %v", r.status, err)
	}
	return st, json.Unmarshal(r.body, &st)
}

func tracePath(o options, workload string) string {
	return filepath.Join(o.outDir, "trace-"+workload+".jsonl")
}
