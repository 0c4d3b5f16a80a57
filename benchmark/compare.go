package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is how one end-to-end metric on one workload compares between a
// baseline and a candidate.
type verdict string

const (
	withinBound verdict = "within-bound"
	regressed   verdict = "regressed"
	// unresolved: the metric's run-to-run spread is wider than its bound, so
	// the two medians cannot tell "unchanged" from "regressed". More runs or
	// a quieter host, not a conclusion.
	unresolved verdict = "unresolved"
	// missing: the candidate does not report a metric the baseline has.
	missing verdict = "missing"
)

// worsening is how much worse cand is than base as a share of base, for a
// metric whose better direction is given; negative when cand is better.
func worsening(base, cand float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// judgement is one verdict with the numbers behind it.
type judgement struct {
	verdict       verdict
	base, cand    float64 // the medians of the two sides' runs
	worse, spread float64
}

// judge applies the benchmark's rule to the runs of the two sides. The spread
// is the wider of the two sides' own run-to-run spreads. While it is within
// the bound the medians decide: worse by more than the bound is a regression.
// Once it is wider than the bound they decide nothing, in either direction,
// and the pair is unresolved — unless every candidate run is at least as good
// as every baseline run, which no amount of noise turns into a regression.
func judge(d metricDef, base, cand []float64) judgement {
	j := judgement{base: median(base), cand: median(cand)}
	j.worse = worsening(j.base, j.cand, d.Better)
	j.spread = max(quartileSpread(base), quartileSpread(cand))
	switch {
	case j.spread > d.Bound && !dominates(cand, base, d.Better):
		j.verdict = unresolved
	case j.worse > d.Bound:
		j.verdict = regressed
	default:
		j.verdict = withinBound
	}
	return j
}

// dominates reports whether every value of cand is at least as good as every
// value of base.
func dominates(cand, base []float64, better string) bool {
	for _, c := range cand {
		for _, b := range base {
			if worsening(b, c, better) > 0 {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs results
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareFiles prints every end-to-end metric x workload of b against a and
// returns the exit code: 1 unless every pair is within its bound. Both files
// must hold at least two runs (-repeat 2): one run has no spread, and without
// a spread a difference cannot be told from noise.
func compareFiles(a, b string) int {
	base, err := loadResults(a)
	if err != nil {
		fatal(err)
	}
	cand, err := loadResults(b)
	if err != nil {
		fatal(err)
	}
	if len(base.Runs) < 2 || len(cand.Runs) < 2 {
		fatal(fmt.Errorf("%s holds %d run(s) and %s %d: -compare needs files written with -repeat 2 or more, one run has no spread to judge a difference against",
			a, len(base.Runs), b, len(cand.Runs)))
	}
	if base.Env.NProc != cand.Env.NProc || base.Seconds != cand.Seconds {
		fmt.Printf("warning: environments differ (nproc %d vs %d, seconds %g vs %g)\n",
			base.Env.NProc, cand.Env.NProc, base.Seconds, cand.Seconds)
	}
	bad := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound", "verdict")
	for _, br := range base.Runs[0] {
		for _, d := range endToEnd {
			bs, cs := base.values(br.Workload, d.Name), cand.values(br.Workload, d.Name)
			if len(bs) == 0 {
				continue // an older baseline without the metric: nothing to hold the candidate to
			}
			if len(cs) == 0 {
				bad++
				fmt.Printf("%-14s %-24s %14.4f %14s %9s %7s %6.0f%%  %s\n", br.Workload, d.Name, median(bs), "-", "", "", 100*d.Bound, missing)
				continue
			}
			j := judge(d, bs, cs)
			if j.verdict != withinBound {
				bad++
			}
			fmt.Printf("%-14s %-24s %14.4f %14.4f %8.1f%% %6.1f%% %6.0f%%  %s\n",
				br.Workload, d.Name, j.base, j.cand, 100*j.worse, 100*j.spread, 100*d.Bound, j.verdict)
		}
		if bf, cf := failures(base, br.Workload), failures(cand, br.Workload); cf > bf {
			bad++
			fmt.Printf("%-14s %-24s %14d %14d %9s %7s %7s  %s\n", br.Workload, "failed", bf, cf, "", "", "any", regressed)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func failures(rs *results, workload string) int {
	n := 0
	for _, pass := range rs.Runs {
		for _, r := range pass {
			if r.Workload == workload {
				n += r.Failed
			}
		}
	}
	return n
}
