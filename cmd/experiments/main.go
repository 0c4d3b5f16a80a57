// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [experiment ...]
//
// With no arguments every paper experiment runs in order. Experiment names
// are fig4, fig5, fig6, fig7, fig8, fig9 and table1; "ablations" runs the
// DESIGN.md design-choice studies.
//
// Flags scale the workloads; the defaults finish in a few minutes:
//
//	-rows N        base row count for the synthetic files (default 32768)
//	-cols N        base column count (default 64)
//	-chunk N       lines per chunk (default 2048)
//	-cache N       binary cache budget in full-width chunks (default 8)
//	-samreads N    reads in the genomics workload (default 20000)
//	-disk MBps     fixed simulated disk bandwidth; 0 calibrates to the
//	               host so the I/O-bound crossover lands at 6 workers
package main

import (
	"flag"
	"fmt"
	"os"

	"scanraw/internal/bench"
)

func main() {
	var sc bench.Scale
	flag.IntVar(&sc.Rows, "rows", 0, "base row count (0 = default)")
	flag.IntVar(&sc.Cols, "cols", 0, "base column count (0 = default)")
	flag.IntVar(&sc.ChunkLines, "chunk", 0, "lines per chunk (0 = default)")
	flag.IntVar(&sc.CacheChunks, "cache", 0, "binary cache budget in full-width chunks (0 = default)")
	flag.IntVar(&sc.SAMReads, "samreads", 0, "genomics workload reads (0 = default)")
	flag.IntVar(&sc.DiskMBps, "disk", 0, "simulated disk MB/s (0 = calibrate, <0 = unthrottled)")
	flag.IntVar(&sc.CPUSlowdown, "cpuslow", 0, "simulated CPU slowdown factor (0 = default 16, <0 = off)")
	flag.Parse()

	exps := bench.AllExperiments
	if args := flag.Args(); len(args) > 0 {
		exps = exps[:0]
		for _, a := range args {
			exps = append(exps, bench.Experiment(a))
		}
	}
	for _, exp := range exps {
		fmt.Printf("--- running %s ---\n", exp)
		if err := bench.Run(exp, sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", exp, err)
			os.Exit(1)
		}
	}
}
