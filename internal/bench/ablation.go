package bench

import (
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/parse"
	"scanraw/internal/scanraw"
	"scanraw/internal/tok"
)

// Ablations exercise the design choices DESIGN.md calls out, comparing
// each mechanism against its disabled (or alternative) form.

// AblationSelectiveResult compares selective conversion (tokenize/parse
// only the query's columns) against full conversion for a narrow query.
type AblationSelectiveResult struct {
	SelectiveTime time.Duration
	FullTime      time.Duration
}

// RunAblationSelective measures the win of selective tokenizing/parsing
// for a query projecting the first 4 of the base column count.
func RunAblationSelective(sc Scale) (*AblationSelectiveResult, error) {
	sc = sc.withDefaults()
	diskCfg := CalibrateDisk(sc, 6)
	measure := func(cols []int) (time.Duration, error) {
		e := newEnv(sc, diskCfg, sc.Rows, sc.Cols)
		op := scanraw.New(e.store, e.table, scanraw.Config{
			CPUSlowdown: sc.slowdown(),
			Workers:     2, ChunkLines: sc.ChunkLines, Policy: scanraw.ExternalTables,
			CacheChunks: sc.CacheChunks,
		})
		// Few workers keep the run CPU-bound so conversion cost is
		// visible; the result is checked against ground truth either way.
		st, err := runSum(op, e, cols)
		return st.Duration, err
	}
	res := &AblationSelectiveResult{}
	var err error
	if res.SelectiveTime, err = measure(allCols(4)); err != nil {
		return nil, err
	}
	if res.FullTime, err = measure(allCols(sc.Cols)); err != nil {
		return nil, err
	}
	return res, nil
}

// AblationSafeguardResult compares speculative loading with and without
// the safeguard flush in an I/O-bound run, where the safeguard is the
// only loading mechanism available.
type AblationSafeguardResult struct {
	WithLoaded    []int
	WithoutLoaded []int
}

// RunAblationSafeguard runs an I/O-bound query sequence and reports
// loaded-chunk progress with the safeguard on and off.
func RunAblationSafeguard(sc Scale, queries int) (*AblationSafeguardResult, error) {
	sc = sc.withDefaults()
	if queries <= 0 {
		queries = 3
	}
	diskCfg := CalibrateDisk(sc, 2) // I/O-bound with 8 workers
	run := func(safeguard bool) ([]int, error) {
		e := newEnv(sc, diskCfg, sc.Rows, sc.Cols)
		numChunks := (sc.Rows + sc.ChunkLines - 1) / sc.ChunkLines
		op := scanraw.New(e.store, e.table, scanraw.Config{
			CPUSlowdown: sc.slowdown(),
			Workers:     8, ChunkLines: sc.ChunkLines, Policy: scanraw.Speculative,
			CacheChunks: numChunks / 4, Safeguard: safeguard,
		})
		var loaded []int
		for q := 0; q < queries; q++ {
			if _, err := runSum(op, e, allCols(sc.Cols)); err != nil {
				return nil, err
			}
			op.WaitIdle()
			loaded = append(loaded, e.table.CountLoaded(allCols(sc.Cols)))
		}
		return loaded, nil
	}
	res := &AblationSafeguardResult{}
	var err error
	if res.WithLoaded, err = run(true); err != nil {
		return nil, err
	}
	if res.WithoutLoaded, err = run(false); err != nil {
		return nil, err
	}
	return res, nil
}

// AblationStatsResult compares a selective second query with and without
// min/max chunk skipping.
type AblationStatsResult struct {
	WithStatsTime    time.Duration
	WithoutStatsTime time.Duration
	SkippedChunks    int
}

// RunAblationStats runs a two-query sequence where query 2 carries a
// selective predicate: with statistics collected by query 1, chunks whose
// min/max exclude the predicate are skipped without reading.
func RunAblationStats(sc Scale) (*AblationStatsResult, error) {
	sc = sc.withDefaults()
	diskCfg := CalibrateDisk(sc, 6)
	run := func(collect bool) (time.Duration, int, error) {
		e := newEnv(sc, diskCfg, sc.Rows, sc.Cols)
		op := scanraw.New(e.store, e.table, scanraw.Config{
			CPUSlowdown: sc.slowdown(),
			Workers:     8, ChunkLines: sc.ChunkLines, Policy: scanraw.ExternalTables,
			CacheChunks: 2, CollectStats: collect,
		})
		// Query 1: full scan (collects stats when enabled).
		if _, err := runSum(op, e, allCols(sc.Cols)); err != nil {
			return 0, 0, err
		}
		// Query 2: highly selective predicate. Values are uniform in
		// [0, 2^31); a tight range excludes nearly every chunk.
		q, err := engine.ParseSQL(
			"SELECT COUNT(*) FROM bench WHERE c0 < 1000", e.table.Schema())
		if err != nil {
			return 0, 0, err
		}
		_, st, err := scanraw.ExecuteQuery(op, q)
		if err != nil {
			return 0, 0, err
		}
		return st.Duration, st.SkippedChunks, nil
	}
	res := &AblationStatsResult{}
	var err error
	if res.WithStatsTime, res.SkippedChunks, err = run(true); err != nil {
		return nil, err
	}
	if res.WithoutStatsTime, _, err = run(false); err != nil {
		return nil, err
	}
	return res, nil
}

// AblationPushdownResult compares push-down selection in PARSE (convert
// predicate column first, convert the rest only for qualifying tuples)
// against parse-then-filter, at the conversion layer. The paper judges
// push-down not viable once loading is involved; this quantifies the
// single-pass conversion effect in isolation.
type AblationPushdownResult struct {
	PushdownTime time.Duration
	StandardTime time.Duration
	Selectivity  float64
}

// RunAblationPushdown converts a file with a selective predicate two ways
// and reports conversion times.
func RunAblationPushdown(sc Scale) (*AblationPushdownResult, error) {
	sc = sc.withDefaults()
	spec := gen.CSVSpec{Rows: sc.Rows, Cols: sc.Cols, Seed: 2}
	data := gen.Bytes(spec)
	chunks, err := tok.SplitChunks(data, sc.ChunkLines)
	if err != nil {
		return nil, err
	}
	tk := tok.Tokenizer{Delim: ',', MinFields: sc.Cols}
	p := parse.Parser{Schema: spec.Schema()}
	cols := allCols(sc.Cols)
	// Predicate: first column below 1% of the value range.
	pred := func(field []byte) bool {
		x, err := parse.ParseInt(field)
		return err == nil && x < (1<<31)/100
	}

	res := &AblationPushdownResult{}
	kept, total := 0, 0
	pushdown := func() (time.Duration, error) {
		start := time.Now()
		kept, total = 0, 0
		for _, c := range chunks {
			pm, err := tk.Tokenize(c, sc.Cols)
			if err != nil {
				return 0, err
			}
			bc, keep, err := p.ParseWhere(c, pm, cols, 0, pred)
			if err != nil {
				return 0, err
			}
			kept += bc.Rows
			total += c.Lines
			_ = keep
		}
		return time.Since(start), nil
	}
	standard := func() (time.Duration, error) {
		start := time.Now()
		for _, c := range chunks {
			pm, err := tk.Tokenize(c, sc.Cols)
			if err != nil {
				return 0, err
			}
			if _, err := p.Parse(c, pm, cols); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	if res.PushdownTime, err = sc.repeat(pushdown); err != nil {
		return nil, err
	}
	if res.StandardTime, err = sc.repeat(standard); err != nil {
		return nil, err
	}
	if total > 0 {
		res.Selectivity = float64(kept) / float64(total)
	}
	return res, nil
}

// AblationWriteGranularityResult compares the two write granularities the
// system supports: speculative's oldest-unloaded-one-at-a-time writes,
// interleaved with disk-idle windows, versus buffered loading's
// batch-on-eviction writes that contend with READ.
type AblationWriteGranularityResult struct {
	SpeculativeTime   time.Duration
	SpeculativeLoaded int
	BufferedTime      time.Duration
	BufferedLoaded    int
}

// RunAblationWriteGranularity measures the first-query cost of each write
// granularity under a CPU-bound configuration (where writes can hide).
func RunAblationWriteGranularity(sc Scale) (*AblationWriteGranularityResult, error) {
	sc = sc.withDefaults()
	diskCfg := CalibrateDisk(sc, 16) // 8 workers cannot saturate: CPU-bound
	run := func(policy scanraw.WritePolicy) (time.Duration, int, error) {
		e := newEnv(sc, diskCfg, sc.Rows, sc.Cols)
		op := scanraw.New(e.store, e.table, scanraw.Config{
			CPUSlowdown: sc.slowdown(),
			Workers:     8, ChunkLines: sc.ChunkLines, Policy: policy,
			CacheChunks: sc.CacheChunks, Safeguard: true,
		})
		st, err := runSum(op, e, allCols(sc.Cols))
		if err != nil {
			return 0, 0, err
		}
		op.WaitIdle()
		return st.Duration, e.table.CountLoaded(allCols(sc.Cols)), nil
	}
	res := &AblationWriteGranularityResult{}
	var err error
	if res.SpeculativeTime, res.SpeculativeLoaded, err = run(scanraw.Speculative); err != nil {
		return nil, err
	}
	if res.BufferedTime, res.BufferedLoaded, err = run(scanraw.BufferedLoad); err != nil {
		return nil, err
	}
	return res, nil
}
