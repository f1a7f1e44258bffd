// Command ipsketch is the library's command line: estimate join
// statistics between two CSV files, rank a data lake against a query
// table from sketches alone (in-process or through a running sketchd),
// and regenerate the paper's evaluation.
//
// Usage:
//
//	ipsketch join -a left.csv -b right.csv [-cola COL] [-colb COL]
//	              [-method WMH] [-storage 400] [-seed 1] [-agg first]
//	ipsketch search [-tables 30] [-storage 400] [-method WMH] [-seed 7]
//	                [-remote http://127.0.0.1:7207]
//	ipsketch experiments [-run all|table1|fig4|fig5|fig6|ablation]
//	                     [-quick] [-seed 2023] [-csvdir DIR]
//
// join reads two CSV files with a header row, keyed on their first column
// (strings allowed; every other column numeric), and prints the sketch
// estimates beside the exact statistics of the materialized join. Without
// -cola/-colb the alphabetically first value column of each file is used.
//
// search is the paper's motivating application (§1.2): it generates a
// simulated World-Bank-style lake, plants one table whose column is
// strongly correlated with the query on their shared keys, sketches every
// table once, ranks by |estimated correlation| and reports where the
// planted table landed. With -remote the lake is ingested into a running
// sketchd and ranked there; the daemon must run with matching
// -method/-storage/-seed and the -keyspace the error hint names.
//
// experiments prints the tables and figures of the paper's Section 5 as
// text tables, optionally also writing CSV files for plotting; -quick runs
// scaled-down configurations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	ipsketch "repro"
	"repro/internal/csvtable"
	"repro/internal/experiments"
	"repro/internal/hashing"
	"repro/internal/worldbank"
	"repro/service"
	"repro/service/client"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A command registers its flags on fs and returns its body, which runs
// after the flags are parsed.
type command func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error

var commands = map[string]command{
	"join":        join,
	"search":      search,
	"experiments": runExperiments,
}

// errUsage marks an error that is the caller's invocation, not the work:
// it exits 2, as a flag error does.
var errUsage = errors.New("usage")

// run is the whole command: it returns the exit status, 2 for a usage
// error (unknown command, bad flag), 1 when the work fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "ipsketch: unknown command %q\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: ipsketch join|search|experiments [flags] (-h for a command's flags)")
		return 2
	}
	fs := flag.NewFlagSet("ipsketch "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := commands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		if errors.Is(err, errUsage) {
			return 2
		}
		return 1
	}
	return 0
}

// sketchFlags registers the sketch configuration flags every command
// that sketches shares.
func sketchFlags(fs *flag.FlagSet, seed uint64) *ipsketch.Config {
	cfg := new(ipsketch.Config)
	fs.TextVar(&cfg.Method, "method", ipsketch.MethodWMH, fmt.Sprint("sketch method, one of ", ipsketch.Methods()))
	fs.IntVar(&cfg.StorageWords, "storage", 400, "sketch budget in 64-bit words")
	fs.Uint64Var(&cfg.Seed, "seed", seed, "sketch seed")
	return cfg
}

func join(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	fileA := fs.String("a", "", "left CSV file")
	fileB := fs.String("b", "", "right CSV file")
	colA := fs.String("cola", "", "value column in the left file (default: alphabetically first)")
	colB := fs.String("colb", "", "value column in the right file (default: alphabetically first)")
	cfg := sketchFlags(fs, 1)
	var agg ipsketch.Agg
	fs.TextVar(&agg, "agg", ipsketch.AggFirst, "aggregation for duplicate keys: sum, mean, count, min, max, first")
	return func(stdout, _ io.Writer) error {
		if *fileA == "" || *fileB == "" {
			return fmt.Errorf("%w: both -a and -b are required", errUsage)
		}
		ta, ca, err := loadTable(*fileA, *colA, agg)
		if err != nil {
			return err
		}
		tb, cb, err := loadTable(*fileB, *colB, agg)
		if err != nil {
			return err
		}
		ts, err := ipsketch.NewTableSketcher(*cfg, 0)
		if err != nil {
			return err
		}
		ska, err := ts.SketchTable(ta, ca)
		if err != nil {
			return err
		}
		skb, err := ts.SketchTable(tb, cb)
		if err != nil {
			return err
		}
		est, err := ipsketch.EstimateJoinStats(ska, ca, skb, cb)
		if err != nil {
			return err
		}
		exact, err := ipsketch.ExactJoinStats(ta, ca, tb, cb)
		if err != nil {
			return err
		}

		fmt.Fprintf(stdout, "join %s.%s ⋈ %s.%s  (method=%v, storage=%d words, sketch=%.0f words/table)\n",
			ta.Name(), ca, tb.Name(), cb, cfg.Method, cfg.StorageWords, ska.StorageWords())
		fmt.Fprintf(stdout, "%-14s %14s %14s\n", "statistic", "estimate", "exact")
		for _, r := range []struct {
			name string
			e, x float64
		}{
			{"size", est.Size, exact.Size},
			{"sum_a", est.SumA, exact.SumA},
			{"sum_b", est.SumB, exact.SumB},
			{"mean_a", est.MeanA, exact.MeanA},
			{"mean_b", est.MeanB, exact.MeanB},
			{"var_a", est.VarA, exact.VarA},
			{"var_b", est.VarB, exact.VarB},
			{"inner_product", est.InnerProduct, exact.InnerProduct},
			{"covariance", est.Covariance, exact.Covariance},
			{"correlation", est.Correlation, exact.Correlation},
		} {
			fmt.Fprintf(stdout, "%-14s %14.4f %14.4f\n", r.name, r.e, r.x)
		}
		return nil
	}
}

// loadTable reads a CSV file into a Table, keyed on the first column,
// returning the table and the chosen value column (the first one when
// wantCol is empty).
func loadTable(path, wantCol string, agg ipsketch.Agg) (*ipsketch.Table, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	opt := csvtable.Options{
		Name: strings.TrimSuffix(filepath.Base(path), ".csv"),
		Agg:  agg,
	}
	if wantCol != "" {
		opt.Columns = []string{wantCol}
	}
	t, err := csvtable.Load(f, opt)
	if err != nil {
		return nil, "", err
	}
	col := wantCol
	if col == "" {
		col = t.ColumnNames()[0]
	}
	return t, col, nil
}

func search(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	numTables := fs.Int("tables", 30, "number of lake tables")
	cfg := sketchFlags(fs, 7)
	remote := fs.String("remote", "", "sketchd base URL; rank through the daemon instead of in-process")
	return func(stdout, _ io.Writer) error {
		lakeParams := worldbank.PaperLakeParams(cfg.Seed)
		lakeParams.NumTables = *numTables
		lake, err := worldbank.GenerateLake(lakeParams)
		if err != nil {
			return err
		}

		// The query table: 400 keys with a normal column. The planted
		// needle shares every second query key; its column is 0.95·query
		// + noise there.
		rng := hashing.NewSplitMix64(cfg.Seed)
		const queryRows = 400
		qKeys, qVals := make([]uint64, queryRows), make([]float64, queryRows)
		for i := range qKeys {
			qKeys[i], qVals[i] = uint64(i*3), rng.Norm()
		}
		nKeys, nVals := make([]uint64, queryRows), make([]float64, queryRows)
		for i := range nKeys {
			nKeys[i], nVals[i] = uint64(i*6), 0.95*qVals[(2*i)%queryRows]+0.2*rng.Norm()
		}
		query, err := ipsketch.NewTable("query", qKeys, map[string][]float64{"v": qVals})
		if err != nil {
			return err
		}
		needle, err := ipsketch.NewTable("needle", nKeys, map[string][]float64{"v": nVals})
		if err != nil {
			return err
		}
		lake = append(lake, needle)

		// Sketch everything once, then rank: one full ranking serves both
		// outputs (the top 10 is its prefix; the needle's rank needs all).
		ts, err := ipsketch.NewTableSketcher(*cfg, lakeParams.Universe*8)
		if err != nil {
			return err
		}
		q := ipsketch.Query{Column: "v", RankBy: ipsketch.RankByAbsCorrelation, MinJoinSize: 8, K: -1}
		if q.Sketch, err = ts.SketchTable(query); err != nil {
			return err
		}
		var hits []ipsketch.SearchResult
		if *remote != "" {
			if hits, err = searchRemote(*remote, lake, q); err != nil {
				return fmt.Errorf("%w (the daemon must run with matching -method/-storage/-seed and -keyspace %d)",
					err, lakeParams.Universe*8)
			}
		} else if hits, err = searchLocal(ts, lake, q); err != nil {
			return err
		}

		byName := make(map[string]*ipsketch.Table, len(lake))
		for _, t := range lake {
			byName[t.Name()] = t
		}
		fmt.Fprintf(stdout, "search: %d tables, method=%v, storage=%d words\n", len(lake), cfg.Method, cfg.StorageWords)
		fmt.Fprintf(stdout, "%-4s %-12s %-8s %12s %12s %14s\n", "rank", "table", "column", "est_corr", "est_size", "exact_corr")
		for rank, h := range hits[:min(len(hits), 10)] {
			exact, err := ipsketch.ExactJoinStats(query, "v", byName[h.Table], h.Column)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-4d %-12s %-8s %12.3f %12.1f %14.3f\n",
				rank+1, h.Table, h.Column, h.Stats.Correlation, h.Stats.Size, exact.Correlation)
		}
		for rank, h := range hits {
			if h.Table == "needle" {
				fmt.Fprintf(stdout, "\nplanted table found at rank %d of %d candidates\n", rank+1, len(hits))
				break
			}
		}
		return nil
	}
}

// searchLocal sketches the lake into an index and ranks it in-process.
// Exact score ties may order differently from a daemon's (its catalog
// breaks them by table name, the index by lake order); scores are equal.
func searchLocal(ts *ipsketch.TableSketcher, lake []*ipsketch.Table, q ipsketch.Query) ([]ipsketch.SearchResult, error) {
	ix := ipsketch.NewSketchIndex()
	for _, t := range lake {
		sk, err := ts.SketchTable(t)
		if err != nil {
			return nil, err
		}
		if err := ix.Add(sk); err != nil {
			return nil, err
		}
	}
	hits, _, err := ix.Search(q)
	return hits, err
}

// searchRemote ingests the lake into a sketchd daemon (raw columns,
// sketched daemon-side) and ranks with the query sketch built locally, so
// the query columns never leave the process.
func searchRemote(baseURL string, lake []*ipsketch.Table, q ipsketch.Query) ([]ipsketch.SearchResult, error) {
	ctx := context.Background()
	cl, err := client.New(baseURL)
	if err != nil {
		return nil, err
	}
	for _, t := range lake {
		cols := map[string][]float64{}
		for _, c := range t.ColumnNames() {
			cols[c], _ = t.Column(c)
		}
		if _, err := cl.PutTable(ctx, t.Name(), service.TablePayload{Keys: t.Keys(), Columns: cols}); err != nil {
			return nil, err
		}
	}
	return cl.SearchSketch(ctx, q)
}

// experiment is one entry of the paper's evaluation: run computes it at
// seed (scaled down when quick) and returns its text and CSV renderings.
type experiment struct {
	name, csv string
	run       func(seed uint64, quick bool) (render, writeCSV func(io.Writer) error, err error)
}

// exp lifts one experiment's config, run, render and CSV functions into an
// experiment.
func exp[C, R any](name, csv string, paper, quick func(uint64) C, runExp func(C) (R, error), render, writeCSV func(io.Writer, R) error) experiment {
	return experiment{name, csv, func(seed uint64, q bool) (func(io.Writer) error, func(io.Writer) error, error) {
		cfg := paper(seed)
		if q {
			cfg = quick(seed)
		}
		res, err := runExp(cfg)
		bind := func(f func(io.Writer, R) error) func(io.Writer) error {
			return func(w io.Writer) error { return f(w, res) }
		}
		return bind(render), bind(writeCSV), err
	}}
}

var experimentTable = []experiment{
	exp("table1", "table1.csv", experiments.PaperTable1Config, experiments.QuickTable1Config, experiments.RunTable1, experiments.RenderTable1, experiments.WriteTable1CSV),
	exp("fig4", "figure4.csv", experiments.PaperFigure4Config, experiments.QuickFigure4Config, experiments.RunFigure4, experiments.RenderFigure4, experiments.WriteFigure4CSV),
	exp("fig5", "figure5.csv", experiments.PaperFigure5Config, experiments.QuickFigure5Config, experiments.RunFigure5, experiments.RenderFigure5, experiments.WriteFigure5CSV),
	exp("fig6", "figure6.csv", experiments.PaperFigure6Config, experiments.QuickFigure6Config, experiments.RunFigure6, experiments.RenderFigure6, experiments.WriteFigure6CSV),
	exp("ablation", "ablation.csv", experiments.PaperAblationConfig, experiments.QuickAblationConfig, experiments.RunAblation, experiments.RenderAblation, experiments.WriteAblationCSV),
}

func runExperiments(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	which := fs.String("run", "all", "which experiment to run: all, table1, fig4, fig5, fig6, ablation")
	quick := fs.Bool("quick", false, "use scaled-down configurations")
	seed := fs.Uint64("seed", 2023, "experiment seed")
	csvDir := fs.String("csvdir", "", "directory to write CSV outputs (optional)")
	return func(stdout, stderr io.Writer) error {
		ran := false
		for _, e := range experimentTable {
			if *which != "all" && !strings.EqualFold(*which, e.name) {
				continue
			}
			ran = true
			render, writeCSV, err := e.run(*seed, *quick)
			if err != nil {
				return err
			}
			if err := render(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeFile(filepath.Join(*csvDir, e.csv), writeCSV, stderr); err != nil {
					return err
				}
			}
		}
		if !ran {
			return fmt.Errorf("%w: unknown experiment %q (want all, table1, fig4, fig5, fig6, ablation)", errUsage, *which)
		}
		return nil
	}
}

// writeFile creates path (and its directory) and writes it with write.
func writeFile(path string, write func(io.Writer) error, stderr io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
