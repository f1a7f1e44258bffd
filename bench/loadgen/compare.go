package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// resultSet is the file -out appends to and -compare reads: every run of
// one tree, any number per workload.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func appendRun(path string, res *runResult) error {
	set, err := readSet(path)
	if errors.Is(err, os.ErrNotExist) {
		set = &resultSet{}
	} else if err != nil {
		return err
	}
	set.Runs = append(set.Runs, res)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs, with the seed of each.
func (set *resultSet) values(workload, name string) (xs []float64, seeds []uint64) {
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if name == "fail_ratio" {
			xs = append(xs, r.FailRatio)
		} else if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		} else {
			continue
		}
		seeds = append(seeds, r.Seed)
	}
	return xs, seeds
}

// The metrics that repeat exactly for a seed. Their bound in
// BENCHMARK.json has to cover how much they differ from one seed to the
// next, because the driver's sets are made of runs with different seeds;
// between runs of the same seed nothing but a change of the code moves
// them, so there they are held to exactBound.
var exactForSeed = map[string]bool{"disk_mb": true, "recall_at_10": true, "ip_err_scaled_p50": true}

const exactBound = 0.005

// pairBySeed returns, for every seed both sets ran, the two values of
// that seed, in the order of a's runs. A seed run more than once
// contributes its first run.
func pairBySeed(a []float64, seedsA []uint64, b []float64, seedsB []uint64) (pa, pb []float64) {
	inB := map[uint64]float64{}
	for i := len(b) - 1; i >= 0; i-- {
		inB[seedsB[i]] = b[i]
	}
	seen := map[uint64]bool{}
	for i, seed := range seedsA {
		if vb, ok := inB[seed]; ok && !seen[seed] {
			seen[seed] = true
			pa, pb = append(pa, a[i]), append(pb, vb)
		}
	}
	return pa, pb
}

// rule is one end-to-end metric's direction and regression bound, as
// BENCHMARK.json fixes them.
type rule struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readRules(path string) ([]rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []rule `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Failures are not a bounded metric of the file (they are 0 on every
	// accepted run); any at all is a regression.
	return append(file.EndToEnd, rule{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0}), nil
}

// worseBy is how far b is on the wrong side of a, as a share of a.
func worseBy(a, b float64, r rule) float64 {
	worse := b - a
	if r.Better == "higher" {
		worse = a - b
	}
	if a != 0 {
		return worse / math.Abs(a)
	} else if worse > 0 {
		return math.Inf(1)
	}
	return worse
}

// verdictPaired judges a metric that is exact for a seed on the seeds
// both sets ran: the median over those seeds of how much worse B's value
// is than A's for the same seed, against exactBound.
func verdictPaired(pa, pb []float64, r rule) (worse float64, v string) {
	diffs := make([]float64, len(pa))
	for i := range pa {
		diffs[i] = worseBy(pa[i], pb[i], r)
	}
	if worse = median(diffs); worse > exactBound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// verdict judges set B against set A on one metric. worse is how far B's
// median is on the wrong side of A's, as a share of A's.
func verdict(a, b []float64, r rule) (worse float64, v string) {
	worse = worseBy(median(a), median(b), r)
	switch {
	case spread(a) > r.Bound || spread(b) > r.Bound:
		// The sets disagree with themselves by more than the bound: a
		// difference of that size between them shows nothing.
		return worse, "unresolved"
	case worse > r.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians with their quartiles, the ratio with its base, the bound and
// the verdict. A metric that is exact for a seed is judged seed by seed
// when the sets share seeds (its bound then reads exactBound and its
// verdict names the number of seeds). It reports whether any row is not ok.
func compareSets(w io.Writer, pathA, pathB, boundsPath string) (bad bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	rules, err := readRules(boundsPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A (base A)\tworse by\tbound\tverdict\n")
	for _, s := range workloads {
		for _, r := range rules {
			xa, seedsA := a.values(s.Name, r.Name)
			xb, seedsB := b.values(s.Name, r.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: a set has no run (A %d, B %d)", s.Name, r.Name, len(xa), len(xb))
			}
			worse, v := verdict(xa, xb, r)
			note := ""
			if pa, pb := pairBySeed(xa, seedsA, xb, seedsB); exactForSeed[r.Name] && len(pa) > 0 {
				worse, v = verdictPaired(pa, pb, r)
				r.Bound = exactBound
				note = fmt.Sprintf(" (seed by seed, %d)", len(pa))
			}
			if v != "ok" {
				bad = true
			}
			ratio := "n/a"
			if ma := median(xa); ma != 0 {
				ratio = fmt.Sprintf("%.4f (%.5g)", median(xb)/ma, ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%s\n",
				s.Name, r.Name, r.Unit, cell(xa), cell(xb), ratio, worse*100, r.Bound*100, v+note)
		}
	}
	return bad, tw.Flush()
}

func cell(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q2, q1, q3, len(xs))
}
