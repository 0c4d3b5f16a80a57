// Command scanrawlint runs scanraw's project-specific static analyzers —
// the concurrency, resource-lifecycle, and durability invariants go vet and
// the race detector cannot check:
//
//	pinbalance    cache pins matched by Unpin on all paths
//	poolpair      pooled vectors/positional maps reach a recycle call
//	goexit        go func literals can observe shutdown or are finite
//	ctxflow       exported ctx-taking functions thread their context
//	locksend      no channel ops while holding a mutex
//	journalorder  loaded-record journal appends dominated by the blob write
//	syncack       no nil-error ack after a write without an fsync between
//	decodeguard   wire-decoded counts bounds-checked before make()
//	crcflow       CRC-verifying decode errors never discarded or shadowed
//	lockorder     lock-acquisition graph acyclic; no chan ops under 2 locks
//
// Usage:
//
//	scanrawlint [-only name,name] [packages]
//
// Packages are directories relative to the current directory; a trailing
// /... takes everything below; the default is ./... . Test files are not
// linted. Every function body is summarized once (calls, lock regions,
// channel operations, returns, assignments — internal/lint/facts.go) and the
// ten analyzers are queries over that table. The two whose rule is one
// package's protocol (syncack: internal/store, journalorder:
// internal/dbstore) name it; the rest are keyed by callee names and apply
// wherever those are called. Findings
// print as file:line:col: [analyzer] message; the exit status is 1 when
// any finding survives. Suppress a false positive inline, with a reason:
//
//	//lint:ignore poolpair Col results alias cached chunk vectors; recycling here would corrupt shared chunks
//
// A directive that suppresses nothing is itself reported (the
// unused-suppression pass), so stale ignores cannot rot in place.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scanraw/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "scanrawlint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = sel
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanrawlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(lint.Config{Root: root}, flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanrawlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scanrawlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
