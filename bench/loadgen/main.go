// Command loadgen is the repository's benchmark: it builds sketchd from
// the tree, drives a real daemon process over loopback HTTP with a seeded
// workload, checks every answer, and prints every metric by name.
//
//	loadgen -workload <name|all> -seed <n> [-seconds 10] [-trace 1] [-out set.json]
//	loadgen -compare A.json B.json
//
// See bench/README.md for the workloads, the metrics and how to read the
// output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	// Every exit path sweeps, a panic's unwinding included: a daemon left
	// running or a corpus left on disk would outlive the benchmark.
	defer cleanup.sweep()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup.sweep()
		os.Exit(130)
	}()

	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of the corpus and the operation sequence")
		seconds  = flag.Float64("seconds", 10, "measured time of one run")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes the spans")
		scale    = flag.Float64("scale", 1, "corpus size multiplier, for smoke runs")
		out      = flag.String("out", "", "append the runs to this result-set file")
		compare  = flag.Bool("compare", false, "compare two result-set files given as arguments")
		verbose  = flag.Bool("v", false, "print every set-up and pass to standard error as it finishes")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two result-set files"))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if s, ok := workloadByName(*workload); ok {
		specs = []spec{s}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || *scale <= 0 {
		return fail(errors.New("-seconds and -scale must be positive"))
	}
	benchOut := filepath.Join(root, "bench", "out")
	bin, err := buildSketchd(root, benchOut)
	if err != nil {
		return fail(err)
	}
	o := options{
		seed: *seed, seconds: *seconds, passes: measuredPasses, setUps: timedSetUps, scale: *scale, trace: *trace != 0,
		sketchd: bin, workDir: filepath.Join(benchOut, "work"), outDir: benchOut, root: root, verbose: *verbose,
	}

	for _, s := range specs {
		res, err := runWorkload(o, s)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.Name, err))
		}
		report(res)
		if *out != "" {
			if err := appendRun(*out, res); err != nil {
				return fail(err)
			}
		}
		// The last line of a run is its result, alone on the line.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// report prints one run for a reader: every metric by name with its
// unit, then what was run.
func report(res *runResult) {
	m := res.Meta
	fmt.Printf("workload %s  seed %d  (%d families x %d members x %d rows, columns %s; %d passes, %d set-ups, %g s)\n",
		res.Workload, res.Seed, m.Families, m.Members, m.Rows, strings.Join(m.Columns, ","), m.Passes, m.SetUps, m.Seconds)
	names := endToEnd
	if res.Trace {
		names = perLayer
	}
	for _, n := range names {
		v := res.Metrics[n.name]
		fmt.Printf("  %-36s %14.6g %s\n", n.name, v.Value, v.Unit)
	}
	fmt.Printf("  %-36s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	if res.FirstBad != "" {
		fmt.Printf("  first failure: %s\n", res.FirstBad)
	}
	for _, line := range res.Identity {
		fmt.Printf("  identity: %s\n", line)
	}
	if res.Trace {
		fmt.Printf("  spans: %s\n", m.TraceFile)
	}
	fmt.Printf("  bodies: corpus %.12s queries %.12s writes %.12s\n", res.CorpusSHA, res.QuerySHA, res.WriteSHA)
	fmt.Printf("  host: nproc %d GOMAXPROCS %d %s commit %s\n  daemon: %s\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit, strings.Join(m.DaemonFlags, " "))
}

// meta records what a result was measured on and with.
type meta struct {
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	DaemonFlags []string `json:"daemon_flags"`
	Clients     int      `json:"clients"`
	Families    int      `json:"families"`
	Members     int      `json:"members"`
	Rows        int      `json:"rows"`
	Columns     []string `json:"columns"`
	Seconds     float64  `json:"seconds"`
	Passes      int      `json:"passes"`
	SetUps      int      `json:"setups"`
	Scale       float64  `json:"scale"`
	TraceFile   string   `json:"trace_file,omitempty"`
}

func collectMeta(o options, s spec) meta {
	m := meta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown",
		DaemonFlags: append(s.daemonFlags(), "-wal", "<dir>", "-snapshot", "<file>"), Clients: 1,
		Families: s.Families, Members: s.Members, Rows: s.Rows, Columns: s.Cols,
		Seconds: o.seconds, Passes: o.passes, SetUps: o.setUps, Scale: o.scale,
	}
	if s.Mixed {
		m.Clients = 2
	}
	if o.trace {
		m.TraceFile = tracePath(o, s.Name)
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = o.root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module repro: the tree sketchd is built from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module repro" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro in or above the working directory")
		}
		dir = parent
	}
}
