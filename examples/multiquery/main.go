// Multiquery: shared-scan execution of several queries — the multi-query
// processing the paper lists as future work (§7), built on the same
// operator.
//
// Three analysts ask different questions of the same raw file at the same
// time. Run separately, each query would scan and convert the file; with
// RunSharedContext the operator converts the union of the needed columns
// once and feeds every query from the same chunk stream, so three queries
// cost about one scan.
//
// Run with: go run ./examples/multiquery
package main

import (
	"fmt"
	"log"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	intscan "scanraw/internal/scanraw"
	"scanraw/internal/vdisk"
)

func main() {
	spec := gen.CSVSpec{Rows: 1 << 15, Cols: 16, Seed: 77}
	disk := vdisk.New(vdisk.Config{ReadBandwidth: 300 << 20, WriteBandwidth: 150 << 20})
	gen.Preload(disk, "raw/metrics.csv", spec)
	store := dbstore.NewStore(disk)
	table, err := store.CreateTable("metrics", spec.Schema(), "raw/metrics.csv")
	if err != nil {
		log.Fatal(err)
	}
	newOp := func() *intscan.Operator {
		return intscan.New(store, table, intscan.Config{
			Workers: 8, ChunkLines: 2048, CacheChunks: 4,
		})
	}

	sqls := []string{
		"SELECT SUM(c0+c1) AS total FROM metrics",
		"SELECT COUNT(*) AS hot FROM metrics WHERE c2 > 2000000000",
		"SELECT MIN(c3), MAX(c3), AVG(c3) FROM metrics",
	}
	queries := make([]*engine.Query, len(sqls))
	for i, s := range sqls {
		q, err := engine.ParseSQL(s, table.Schema())
		if err != nil {
			log.Fatal(err)
		}
		queries[i] = q
	}

	// Shared scan: one pass for all three queries.
	op := newOp()
	start := time.Now()
	results, st, err := intscan.ExecuteQueries(op, queries)
	if err != nil {
		log.Fatal(err)
	}
	shared := time.Since(start)
	for i, res := range results {
		fmt.Printf("> %s\n%s\n", sqls[i], res)
	}
	fmt.Printf("shared scan: %v for %d queries (%d chunks converted once)\n\n",
		shared.Round(time.Millisecond), len(queries), st.DeliveredRaw)

	// Baseline: each query scans on its own operator (no cache reuse).
	start = time.Now()
	for _, q := range queries {
		if _, _, err := intscan.ExecuteQuery(newOp(), q); err != nil {
			log.Fatal(err)
		}
	}
	separate := time.Since(start)
	fmt.Printf("separate scans: %v — shared is %.1fx faster\n",
		separate.Round(time.Millisecond), float64(separate)/float64(shared))
}
