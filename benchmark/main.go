// Command benchmark is the SCANRAW benchmark: four workloads against real
// scanrawd subprocesses on FileDisk, every answer checked against an oracle,
// bounded end-to-end metrics, and a per-layer table taken from outside the
// program. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run . -seed 1                     every workload, report + out/results-seed1-<time>.json
//	go run . -seed 1 -trace 1            the same plus the traced layer run
//	go run . -smoke                      tiny datasets, 2 s loops: the whole harness once
//	go run . -repeat 3 -seed 1           three runs in one file, with their spread
//	go run . -compare a.json b.json      two such files: within-bound / regressed / unresolved
//	bash run.sh --workload warm_mix --seed 3 --seconds 20 --trace 0
//	                                     one workload, one JSON line last (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "selects dataset contents, columns, thresholds and query order")
		workload = flag.String("workload", "", "run this one workload and print one JSON result line last (default: all, with a report)")
		seconds  = flag.Float64("seconds", 30, "length of a loop's measured window and of a sequence's repetitions")
		trace    = flag.Int("trace", 0, "1: the traced layer run (per-layer metrics) instead of, or in the full run after, the end-to-end run")
		smoke    = flag.Bool("smoke", false, "tiny datasets and 2 s windows: drives the whole harness once")
		repeat   = flag.Int("repeat", 1, "run every workload this many times and report the run-to-run spread of each metric")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		*seconds = 2
	}
	selected := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadDef{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(*seed, *seconds, sz)
	if err != nil {
		fatal(err)
	}
	code := run(ctx, h, selected, *workload != "", *trace == 1, *repeat)
	h.close()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// deadline is how long the runs of an invocation may take before the harness
// kills its children and fails: per pass of a workload a minute plus four
// times -seconds. A loop sets up for half of -seconds, warms up for a tenth
// and measures for all of it; generating the dataset and the oracle's answers
// takes well under one more; the minute is for spawns, drains and a slow disk.
// A traced pass has a window a third as long, which leaves room for the layer
// table. At the driver's 20 s a run gets 140 s of the 180 s it is allowed.
func deadline(seconds float64, passes int) time.Duration {
	return time.Duration(passes) * (time.Minute + time.Duration(4*seconds*float64(time.Second)))
}

// run executes the selected workloads and returns the exit code: non-zero
// when the harness failed or any operation did.
func run(ctx context.Context, h *harness, selected []workloadDef, single, traced bool, repeat int) int {
	if err := h.build(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The deadline starts after the build: compiling is the toolchain's time.
	passes := len(selected) * repeat
	if single {
		passes = 1
	}
	if traced && !single {
		passes += len(selected)
	}
	ctx, cancel := context.WithTimeout(ctx, deadline(h.seconds, passes))
	defer cancel()
	if single {
		return runSingle(ctx, h, selected[0], traced)
	}
	rs := newResults(h)
	failed := false
	for pass := 0; pass < repeat; pass++ {
		var one []*result
		for _, w := range selected {
			res, err := h.runLive(ctx, w, h.seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			one = append(one, res)
			failed = failed || res.Failed > 0
		}
		rs.Runs = append(rs.Runs, one)
	}
	if traced {
		table, tr, err := h.layerRun(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rs.LayerTable = table
		for _, w := range selected {
			res, err := h.runTraced(ctx, w, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: traced %s: %v\n", w.name, err)
				return 1
			}
			rs.Layers = append(rs.Layers, res)
			failed = failed || res.Failed > 0
		}
		if err := h.writeTrace(tr); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	rs.print(os.Stdout)
	path, err := rs.write(h.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresults written to %s\n", path)
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: failed_share > 0: see the failures above")
		return 1
	}
	return 0
}

// runLive runs one workload against real daemons.
func (h *harness) runLive(ctx context.Context, w workloadDef, seconds float64, repeatSetup bool) (*result, error) {
	if w.sequence {
		return h.runSequence(ctx, w, seconds)
	}
	return h.runLoop(ctx, w, seconds, repeatSetup)
}

// singleRun is one workload's end-to-end run, or its traced run with the
// layer table merged in.
func (h *harness) singleRun(ctx context.Context, w workloadDef, traced bool) (*result, error) {
	if !traced {
		return h.runLive(ctx, w, h.seconds, true)
	}
	table, tr, err := h.layerRun(ctx)
	if err != nil {
		return nil, err
	}
	res, err := h.runTraced(ctx, w, tr)
	if err != nil {
		return nil, err
	}
	for name, v := range table {
		res.Metrics[name] = v
	}
	return res, h.writeTrace(tr)
}

// runSingle is the driver's form: one workload, one JSON object as the last
// line of standard output, holding exactly the end-to-end metrics (or, for a
// traced run, exactly the per-layer ones).
func runSingle(ctx context.Context, h *harness, w workloadDef, traced bool) int {
	res, err := h.singleRun(ctx, w, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: failed operation:", f)
	}
	defs, shown := endToEnd, allMetrics
	if traced {
		defs, shown = perLayer, layerReport
	}
	listed, err := res.Metrics.only(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(os.Stdout, w.name, res.Metrics, shown)
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, listed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printMetrics prints the metrics of defs that m holds, one per line.
func printMetrics(out *os.File, workload string, m metrics, defs []metricDef) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%-14s %-34s %14.4f %s\n", workload, d.Name, v.Value, v.Unit)
	}
}

// results is one results file: every run of every workload, plus the
// environment the numbers were taken in. -repeat N stores N runs, which is
// what gives -compare a run-to-run spread to judge a difference against.
type results struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	BuildS  float64     `json:"build_s"`
	Runs    [][]*result `json:"runs"` // Runs[pass] holds one result per workload
	// A traced run adds the layer table, measured once on fixed inputs, and
	// per workload what its short live run and its replayed budget gave.
	LayerTable metrics   `json:"layer_table,omitempty"`
	Layers     []*result `json:"layers,omitempty"`
}

func newResults(h *harness) *results {
	return &results{Env: readEnvironment(h.root), Seed: h.seed, Seconds: h.seconds, BuildS: h.buildS}
}

// values returns one metric of one workload across the runs.
func (rs *results) values(workload, name string) []float64 {
	var out []float64
	for _, pass := range rs.Runs {
		for _, r := range pass {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (rs *results) print(out *os.File) {
	fmt.Fprintf(out, "\nscanraw benchmark  seed=%d  seconds=%g  clients=%d  nproc=%d  load=%s  %s  commit=%s\n",
		rs.Seed, rs.Seconds, clients(), rs.Env.NProc, rs.Env.LoadAvg, rs.Env.GoVersion, rs.Env.Commit)
	fmt.Fprintf(out, "%-14s %-34s %14.4f s\n", "-", "build_s", rs.BuildS)
	for i, pass := range rs.Runs {
		for _, r := range pass {
			fmt.Fprintf(out, "\nrun %d of %d\n", i+1, len(rs.Runs))
			printMetrics(out, r.Workload, r.Metrics, allMetrics)
			fmt.Fprintf(out, "%-14s %-34s %14.6f ratio (%d failed of %d attempted)\n", r.Workload, "failed_share",
				float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
			for _, f := range r.Failures {
				fmt.Fprintf(out, "%-14s FAILED: %s\n", r.Workload, f)
			}
		}
	}
	if rs.LayerTable != nil {
		fmt.Fprintf(out, "\nlayer table (in process, on ints16 and a 16-chunk SAM file):\n")
		printMetrics(out, "-", rs.LayerTable, perLayer)
	}
	for _, r := range rs.Layers {
		fmt.Fprintf(out, "\nlayers measured for %s (short live run + replayed budget):\n", r.Workload)
		printMetrics(out, r.Workload, r.Metrics, layerReport)
	}
	if len(rs.Runs) >= 2 {
		fmt.Fprintf(out, "\nrun-to-run spread over %d runs (quartile distance / median) against each bound:\n", len(rs.Runs))
		for _, r := range rs.Runs[0] {
			for _, d := range endToEnd {
				spread := quartileSpread(rs.values(r.Workload, d.Name))
				note := "steady"
				if spread > d.Bound {
					note = "wider than the bound: differences on this metric are unresolved"
				}
				fmt.Fprintf(out, "%-14s %-24s %6.1f%% of %4.0f%%  %s\n", r.Workload, d.Name, 100*spread, 100*d.Bound, note)
			}
		}
	}
}

func (rs *results) write(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("results-seed%d-%s.json", rs.Seed, time.Now().Format("20060102-150405")))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
