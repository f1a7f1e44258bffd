package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []rule `json:"end_to_end"`
	PerLayer []rule `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics with the same units: the driver looks metrics up by the
// names in the file.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []rule, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
		}
	}
	check("end-to-end", f.EndToEnd, endToEnd)
	check("per-layer", f.PerLayer, perLayer)
}

func TestMetricNamesAndBounds(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("metric %q [%q] is outside the contract's alphabet", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %q is used twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, s := range workloads {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("workload name %q is invalid or already a metric", s.Name)
		}
	}
	f := readBenchmarkFile(t)
	largest, hasSetUp := 0.0, false
	for _, r := range f.EndToEnd {
		if r.Bound <= 0 || r.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", r.Name, r.Bound)
		}
		largest = max(largest, r.Bound)
	}
	for _, r := range f.EndToEnd {
		if r.Name == "setup_s" {
			hasSetUp = r.Unit == "s" && r.Better == "lower" && r.Bound == largest
		}
	}
	if !hasSetUp {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	for _, r := range f.PerLayer {
		if r.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", r.Name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
}

func TestVerdict(t *testing.T) {
	lower := rule{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := rule{Name: "x_ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		r    rule
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower within bound", steady, []float64{108, 109, 107, 108, 108}, lower, "ok"},
		{"slower beyond bound", steady, []float64{112, 113, 111, 112, 112}, lower, "regressed"},
		{"faster", steady, []float64{50, 51, 49, 50, 50}, lower, "ok"},
		{"throughput down", steady, []float64{85, 86, 84, 85, 85}, higher, "regressed"},
		{"throughput up", steady, []float64{130, 131, 129, 130, 130}, higher, "ok"},
		{"noisy base", []float64{80, 100, 120, 90, 110}, steady, lower, "unresolved"},
		{"noisy change", steady, []float64{80, 100, 120, 90, 110}, lower, "unresolved"},
		{"single runs", []float64{100}, []float64{111}, lower, "regressed"},
		{"a failure", []float64{0, 0}, []float64{0, 0.001}, rule{Better: "lower"}, "unresolved"},
		{"failures", []float64{0, 0}, []float64{0.001, 0.001}, rule{Better: "lower"}, "regressed"},
		{"no failures", []float64{0, 0}, []float64{0, 0}, rule{Better: "lower"}, "ok"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.r); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, searchMs, recall float64, firstSeed uint64) string {
		path := filepath.Join(dir, name)
		for _, s := range workloads {
			for run := uint64(0); run < 2; run++ {
				res := &runResult{Workload: s.Name, Seed: firstSeed + run, Metrics: map[string]metric{}}
				for _, m := range endToEnd {
					res.Metrics[m.name] = metric{1, m.unit}
				}
				res.Metrics["search_p50_ms"] = metric{searchMs, "ms"}
				// Recall differs from seed to seed by far more than exactBound.
				res.Metrics["recall_at_10"] = metric{recall * (1 + 0.1*float64(run)), "ratio"}
				if err := appendRun(path, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	bounds := filepath.Join("..", "..", "BENCHMARK.json")
	compare := func(a, b string) (bool, string) {
		var out strings.Builder
		bad, err := compareSets(&out, a, b, bounds)
		if err != nil {
			t.Fatal(err)
		}
		return bad, out.String()
	}
	base := write("a.json", 4, 0.9, 0)
	if bad, out := compare(base, write("b.json", 4.1, 0.9, 0)); bad {
		t.Errorf("a set 2.5%% slower is not ok:\n%s", out)
	}
	bad, out := compare(base, write("c.json", 6, 0.9, 0))
	if got := strings.Count(out, "regressed"); !bad || got != len(workloads) {
		t.Errorf("a set 50%% slower: %d regressed rows, want one per workload:\n%s", got, out)
	}
	if !strings.Contains(out, "fail_ratio") {
		t.Error("the comparison leaves out fail_ratio")
	}
	// 3% less recall is inside the bound that covers seed-to-seed
	// variation, and a regression when the same seeds are compared.
	bad, out = compare(base, write("d.json", 4, 0.9*0.97, 0))
	if got := strings.Count(out, "regressed (seed by seed, 2)"); !bad || got != len(workloads) {
		t.Errorf("3%% less recall on the same seeds: %d regressed rows, want one per workload:\n%s", got, out)
	}
	if bad, out := compare(base, write("e.json", 4, 0.9*0.97, 100)); bad || strings.Contains(out, "seed by seed") {
		t.Errorf("3%% less recall on other seeds is not ok, or was paired:\n%s", out)
	}
}
