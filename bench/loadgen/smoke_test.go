package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeOptions is a run at 2% scale against a real daemon: one set-up,
// one pass, half a second.
func smokeOptions(t *testing.T) options {
	t.Helper()
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildSketchd(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cleanup.mu.Lock()
		procs := len(cleanup.procs)
		cleanup.mu.Unlock()
		left, _ := os.ReadDir(filepath.Join(dir, "work"))
		if procs != 0 || len(left) != 0 {
			t.Errorf("%d daemons still registered, %d scratch directories left", procs, len(left))
		}
		cleanup.sweep()
	})
	return options{
		seed: 1, seconds: 0.5, passes: 1, setUps: 1, scale: 0.02,
		sketchd: bin, workDir: filepath.Join(dir, "work"), outDir: dir, root: root,
	}
}

// TestSmoke is the whole harness end to end, on every workload, in under
// ten seconds.
func TestSmoke(t *testing.T) {
	o := smokeOptions(t)
	start := time.Now()
	recall := map[string]float64{}
	for _, s := range workloads {
		res, err := runWorkload(o, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2*minPhaseOps {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %s", s.Name, res.Correct, res.Failed, res.Attempted, res.FirstBad)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", s.Name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", s.Name, m.name, v, ok, m.unit)
			}
		}
		recall[s.Name] = res.Metrics["recall_at_10"].Value
	}
	if recall["search_lsh"] > recall["search_sketch"] {
		t.Errorf("recall: lsh %v above the full scan's %v", recall["search_lsh"], recall["search_sketch"])
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("smoke took %v, want under 10 s", took)
	}
}

// TestSmokeTraced is the traced run on the workload with the most kinds
// of operation: every per-layer metric, the identity, and a span file
// that reads back.
func TestSmokeTraced(t *testing.T) {
	o := smokeOptions(t)
	o.trace = true
	s, _ := workloadByName("ingest_mixed")
	res, err := runWorkload(o, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) || len(res.Identity) != 2 {
		t.Errorf("traced run: correct=%v, %d metrics (want %d), %d identity lines: %s", res.Correct, len(res.Metrics), len(perLayer), len(res.Identity), res.FirstBad)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a finite value in %s", m.name, v, ok, m.unit)
		}
	}
	checkSpans(t, tracePath(o, s.Name), int(res.Metrics["trace.spans"].Value))
}

// checkSpans reads a span file back: every line a span, IDs dense,
// parents earlier than children and of the same operation, children
// inside their parents.
func checkSpans(t *testing.T, path string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) != want || want == 0 {
		t.Fatalf("%d spans in %s, trace.spans says %d", len(spans), path, want)
	}
	children := 0
	for i, s := range spans {
		if s.ID != i+1 || s.EndNs < s.StartNs || s.Name == "" {
			t.Fatalf("span %d is %+v", i+1, s)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p := spans[s.Parent-1]
		if s.Parent >= s.ID || p.Op != s.Op || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Fatalf("span %+v does not sit inside its parent %+v", s, p)
		}
	}
	if children == 0 {
		t.Error("no span has a parent: the replay recorded no layer calls")
	}
}
