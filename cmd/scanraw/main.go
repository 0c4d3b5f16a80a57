// Command scanraw executes SQL queries in-situ over a raw delimited file
// through the SCANRAW operator, optionally loading data speculatively as
// queries run.
//
// Usage:
//
//	scanraw -file data.csv -schema 'c0:int,c1:int' \
//	        -policy speculative -workers 8 \
//	        'SELECT SUM(c0+c1) FROM data' 'SELECT COUNT(*) FROM data WHERE c0 < 100'
//
// The file is staged onto a simulated disk (bandwidth set by -disk) so the
// loading behaviour of the operator is observable; per-query statistics
// are printed after each result. Running several queries demonstrates
// gradual loading: later queries are served from the cache and the
// database instead of re-parsing the raw file.
//
// Schema entries are name:type pairs where type is one of int, float, and
// string. With -sam the 11-column SAM schema and tab delimiter are used.
// With -repl an interactive shell reads queries from stdin (meta commands:
// \schema, \loaded, \q).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/ola"
	"scanraw/internal/sam"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/vdisk"
)

func main() {
	var (
		file      = flag.String("file", "", "raw file to query (required)")
		schemaStr = flag.String("schema", "", "schema as name:type[,name:type...]")
		samMode   = flag.Bool("sam", false, "use the SAM schema and tab delimiter")
		policyStr = flag.String("policy", "speculative", "write policy")
		workers   = flag.Int("workers", 8, "worker threads (0 = sequential)")
		chunk     = flag.Int("chunk", 1<<13, "lines per chunk")
		cacheSz   = flag.Int("cache", 32, "binary cache capacity in chunks")
		diskMBps  = flag.Int("disk", 400, "simulated disk bandwidth in MB/s (0 = unthrottled)")
		delim     = flag.String("delim", ",", "field delimiter")
		stats     = flag.Bool("stats", true, "collect min/max statistics while converting")
		repl      = flag.Bool("repl", false, "read queries interactively from stdin")
		timeout   = flag.Duration("timeout", 0, "per-query timeout; cancels the scan when exceeded (0 = none)")
		olaErr    = flag.Float64("ola-error", -1, "online aggregation: stop when the relative confidence bound falls below this fraction (0 = sampled full scan, negative = off)")
		olaConf   = flag.Float64("ola-confidence", 0.95, "online aggregation: confidence level for the error bounds")
		olaSeed   = flag.Int64("ola-seed", 1, "online aggregation: chunk-permutation seed")
	)
	flag.Parse()
	if *file == "" || (flag.NArg() == 0 && !*repl) {
		fmt.Fprintln(os.Stderr, "usage: scanraw -file <raw file> [-schema ...] 'SELECT ...' [...]")
		fmt.Fprintln(os.Stderr, "       scanraw -file <raw file> [-schema ...] -repl")
		os.Exit(2)
	}

	sch, delimByte, err := resolveSchema(*schemaStr, *samMode, *delim)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanraw: %v\n", err)
		os.Exit(2)
	}
	policy, err := scanraw.ParseWritePolicy(*policyStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanraw: %v\n", err)
		os.Exit(2)
	}

	data, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanraw: %v\n", err)
		os.Exit(1)
	}
	var cfg vdisk.Config
	if *diskMBps > 0 {
		cfg.ReadBandwidth = int64(*diskMBps) << 20
		cfg.WriteBandwidth = int64(*diskMBps) << 20
	}
	disk := vdisk.New(cfg)
	disk.Preload("raw/input", data)
	store := dbstore.NewStore(disk)
	table, err := store.CreateTable("data", sch, "raw/input")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanraw: %v\n", err)
		os.Exit(1)
	}

	reg := scanraw.NewRegistry(store)
	opCfg := scanraw.Config{
		Workers:      *workers,
		ChunkLines:   *chunk,
		CacheChunks:  *cacheSz,
		Policy:       policy,
		Safeguard:    true,
		Delim:        delimByte,
		CollectStats: *stats,
	}
	runOne := func(sql string) error {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *olaErr >= 0 {
			return runOLA(ctx, reg.Operator(table, opCfg), sql,
				ola.Config{Tolerance: *olaErr, Confidence: *olaConf}, *olaSeed)
		}
		res, st, err := reg.ExecuteSQLContext(ctx, table, opCfg, sql)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("query timed out after %v: %s", *timeout, sql)
		case errors.Is(err, context.Canceled):
			return fmt.Errorf("query cancelled: %s", sql)
		case err != nil:
			return err
		}
		fmt.Printf("> %s\n%s", sql, res)
		early := ""
		if st.TerminatedEarly {
			early = fmt.Sprintf("; terminated early, saved %d chunks", st.ChunksSaved)
		}
		fmt.Printf("[%.1f ms; chunks: %d cache, %d db, %d raw, %d skipped; loaded %d during run, %d queued; disk %s read, %s written%s]\n\n",
			float64(st.Duration.Microseconds())/1000,
			st.DeliveredCache, st.DeliveredDB, st.DeliveredRaw, st.SkippedChunks,
			st.WrittenDuringRun, st.FlushedAfterRun,
			mb(st.DiskReadBytes), mb(st.DiskWriteBytes), early)
		return nil
	}

	for _, sql := range flag.Args() {
		if err := runOne(sql); err != nil {
			fmt.Fprintf(os.Stderr, "scanraw: %v\n", err)
			os.Exit(1)
		}
	}
	if *repl {
		runREPL(table, runOne)
	}
}

// runOLA executes one query through the online-aggregation path: a
// seeded sampled scan printing converging estimates as the bounds
// shrink, then the final answer (exact if the scan ran to completion).
func runOLA(ctx context.Context, op *scanraw.Operator, sql string, cfg ola.Config, seed int64) error {
	q, err := engine.ParseSQL(sql, op.Table().Schema())
	if err != nil {
		return err
	}
	if err := ola.Eligible(q); err != nil {
		return fmt.Errorf("online aggregation: %v", err)
	}
	fmt.Printf("> %s\n", sql)
	lastRel := math.Inf(1)
	res, runner, st, err := ola.Run(ctx, op, q, cfg, seed, func(s ola.Snapshot) {
		if !(s.MaxRel < lastRel) {
			return
		}
		lastRel = s.MaxRel
		for _, g := range s.Groups {
			fmt.Printf("  ~ %s  (±%s; %d/%d chunks, max rel err %.4f)\n",
				fmtValues(g.Values), fmtBounds(g.Bounds), s.Chunks, s.Total, s.MaxRel)
		}
	})
	if err != nil {
		return err
	}
	fmt.Print(res)
	last := runner.LastSnapshot()
	kind := "estimate"
	if runner.Exact() {
		kind = "exact (full scan)"
	}
	fmt.Printf("[%s; sampled %d/%d chunks; max rel err %.4f; %.1f ms; terminated early: %v]\n\n",
		kind, last.Chunks, last.Total, last.MaxRel,
		float64(st.Duration.Microseconds())/1000, st.TerminatedEarly)
	return nil
}

func fmtValues(vals []engine.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

func fmtBounds(bounds []float64) string {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = fmt.Sprintf("%.1f", b)
	}
	return strings.Join(parts, ", ")
}

// runREPL reads queries from stdin, one per line. Meta commands: \schema
// prints the table schema, \loaded the loading progress, \q quits.
func runREPL(table *dbstore.Table, runOne func(string) error) {
	fmt.Println(`scanraw interactive shell — SQL per line; \schema, \loaded, \q`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("scanraw> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\schema`:
			fmt.Printf("%s %s\n", table.Name(), table.Schema())
		case line == `\loaded`:
			all := make([]int, table.Schema().NumColumns())
			for i := range all {
				all[i] = i
			}
			fmt.Printf("chunks with every column loaded: %d/%d (discovery complete: %v)\n",
				table.CountLoaded(all), table.NumChunks(), table.Complete())
		default:
			if err := runOne(line); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
	}
}

func mb(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func resolveSchema(schemaStr string, samMode bool, delim string) (*schema.Schema, byte, error) {
	if samMode {
		return sam.Schema(), '\t', nil
	}
	if schemaStr == "" {
		return nil, 0, fmt.Errorf("either -schema or -sam is required")
	}
	if len(delim) != 1 {
		return nil, 0, fmt.Errorf("-delim must be a single byte")
	}
	sch, err := schema.ParseSpec(schemaStr)
	if err != nil {
		return nil, 0, err
	}
	return sch, delim[0], nil
}
