package scanraw

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/schema"
	"scanraw/internal/vdisk"
)

func TestLimitTrackerFrontier(t *testing.T) {
	tr := newLimitTracker(10)
	// Out-of-order chunks beyond the frontier don't satisfy on their own,
	// even with plenty of matching rows.
	tr.record(3, 100)
	tr.record(1, 100)
	if tr.satisfied() {
		t.Fatal("satisfied without chunk 0 accounted")
	}
	// Closing the gap advances the frontier past everything recorded.
	tr.record(0, 4)
	if !tr.satisfied() {
		t.Fatal("frontier 0..1 holds 104 rows, want satisfied")
	}
	// A tracker that needs more rows keeps waiting on the contiguous prefix.
	tr = newLimitTracker(10)
	tr.record(0, 3)
	tr.record(1, 3)
	if tr.satisfied() {
		t.Fatal("6 < 10 rows, must not be satisfied")
	}
	tr.record(1, 50) // duplicate records are ignored
	if tr.satisfied() {
		t.Fatal("duplicate record must not add rows")
	}
	tr.record(2, 4)
	if !tr.satisfied() {
		t.Fatal("0+1+2 hold 10 rows, want satisfied")
	}
}

func TestNewDemandShapes(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Str},
	)
	parse := func(sql string) *engine.Query {
		q, err := engine.ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return q
	}
	ex, err := engine.NewExecutor(parse("SELECT c0 FROM data ORDER BY c0 LIMIT 5"), sch)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql         string
		wantDemand  bool
		wantSatisfy bool // whole-scan termination signal
	}{
		{"SELECT c0 FROM data LIMIT 5", true, true},
		{"SELECT c0 FROM data", false, false},
		{"SELECT SUM(c0) FROM data", false, false},
		{"SELECT COUNT(*) FROM data LIMIT 5", false, false},
		{"SELECT c0 FROM data ORDER BY c0 LIMIT 5", true, false},
		{"SELECT c1 FROM data ORDER BY c1 LIMIT 5", false, false}, // string sort key: no stats pruning
	}
	for _, c := range cases {
		q := parse(c.sql)
		dem := NewDemand(q, ex)
		if (dem != nil) != c.wantDemand {
			t.Errorf("%s: demand = %v, want %v", c.sql, dem != nil, c.wantDemand)
		}
		if (dem.SatisfiedFn() != nil) != c.wantSatisfy {
			t.Errorf("%s: satisfied signal = %v, want %v", c.sql, dem.SatisfiedFn() != nil, c.wantSatisfy)
		}
		if HasTerminationProfile(q) != c.wantSatisfy {
			t.Errorf("%s: HasTerminationProfile = %v, want %v", c.sql, HasTerminationProfile(q), c.wantSatisfy)
		}
	}
}

// execSQL parses and runs one query through the operator.
func execSQL(t *testing.T, op *Operator, sql string) (*engine.Result, RunStats) {
	t.Helper()
	q, err := engine.ParseSQL(sql, op.Table().Schema())
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, st, err := ExecuteQuery(op, q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, st
}

// discoverTable completes chunk discovery without converting or caching
// anything: a sampled scan carves every remaining boundary before its first
// visit, and one whose demand is already met then visits nothing.
//
// A LIMIT's proof needs the first in-range chunk consumed, and conversions
// finish out of order: with several chunks in flight that chunk's task can be
// overtaken by every later one (at GOMAXPROCS=8 on two cores a few percent of
// 64-chunk scans deliver all 64, before the single driver and after), so whether a pipelined
// LIMIT terminates early is up to the schedule. Tests that assert it does run
// the forced twin of their configuration: a discovered table, because
// ChunksSaved counts known chunks only, and CacheChunks: 1, which admits the
// next conversion only once the previous chunk was consumed — at most two
// deliveries under any schedule. What the multi-slot regime does guarantee is
// asserted by TestDemandStopsWithinInFlightBound.
func discoverTable(t *testing.T, env *testEnv, chunkLines int) {
	t.Helper()
	op := New(env.store, env.table, Config{ChunkLines: chunkLines})
	_, err := op.Run(Request{
		Columns:   []int{0},
		Order:     func(n int) []int { return revPerm(n) },
		Satisfied: func() bool { return true },
		Deliver:   func(*BinaryChunk) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !env.table.Complete() || op.Cache().Len() != 0 {
		t.Fatalf("discovery pass: complete=%v cached=%d", env.table.Complete(), op.Cache().Len())
	}
}

// limitReference computes the expected rows for a query ending in
// " LIMIT k": the same query without the LIMIT, run to end-of-file on a
// fresh operator, truncated to k rows. Both row orders are canonical
// ((chunk, row) provenance, or the ORDER BY keys with that tiebreak), so
// truncation is exactly what LIMIT must produce.
func limitReference(t *testing.T, rows, cols int, sql string, k int) [][]engine.Value {
	t.Helper()
	env := newEnv(t, rows, cols, nil)
	op := New(env.store, env.table, Config{
		Workers: 4, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables,
	})
	full := strings.Replace(sql, fmt.Sprintf(" LIMIT %d", k), "", 1)
	if full == sql {
		t.Fatalf("query %q has no LIMIT %d to strip", sql, k)
	}
	res, _ := execSQL(t, op, full)
	if len(res.Rows) < k {
		t.Fatalf("reference for %q has %d rows, need >= %d", sql, len(res.Rows), k)
	}
	return res.Rows[:k]
}

// TestLimitDifferential proves early termination changes nothing but the
// amount of work: for LIMIT and ORDER BY ... LIMIT queries, the
// demand-driven paths (pipelined, sequential, and a second run over a warm
// cache) return exactly the full scan's truncated
// result.
func TestLimitDifferential(t *testing.T) {
	const rows, cols, k = 4096, 4, 10
	queries := []string{
		fmt.Sprintf("SELECT c0, c1 FROM data LIMIT %d", k),
		fmt.Sprintf("SELECT c0, c1 FROM data WHERE c2 < 500 LIMIT %d", k),
		fmt.Sprintf("SELECT c0, c1 FROM data ORDER BY c0 LIMIT %d", k),
		fmt.Sprintf("SELECT c0, c1 FROM data ORDER BY c0 DESC LIMIT %d", k),
	}
	refs := make([][][]engine.Value, len(queries))
	for i, sql := range queries {
		refs[i] = limitReference(t, rows, cols, sql, k)
	}

	cases := []struct {
		name string
		cfg  Config
		runs int // > 1 exercises the warm binary cache
	}{
		{"pipeline", Config{Workers: 4, ChunkLines: 64, CacheChunks: 8,
			Policy: ExternalTables, CollectStats: true}, 1},
		{"sequential", Config{Workers: 0, ChunkLines: 64, CacheChunks: 8,
			Policy: ExternalTables, CollectStats: true}, 1},
		{"cached", Config{Workers: 4, ChunkLines: 64, CacheChunks: 16,
			Policy: ExternalTables, CollectStats: true}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, rows, cols, nil)
			op := New(env.store, env.table, c.cfg)
			for i, sql := range queries {
				for run := 0; run < c.runs; run++ {
					res, _ := execSQL(t, op, sql)
					if !reflect.DeepEqual(res.Rows, refs[i]) {
						t.Errorf("%s (run %d): rows differ from truncated full scan\ngot:  %v\nwant: %v",
							sql, run, res.Rows, refs[i])
					}
				}
			}
			// The streamed LIMIT must stop the scan: asserted on the forced
			// twin of the configuration (see discoverTable).
			forced := c.cfg
			forced.CacheChunks = 1
			fenv := newEnv(t, rows, cols, nil)
			discoverTable(t, fenv, 64)
			res, st := execSQL(t, New(fenv.store, fenv.table, forced), queries[0])
			if !reflect.DeepEqual(res.Rows, refs[0]) {
				t.Errorf("%s (forced): rows = %v, want %v", queries[0], res.Rows, refs[0])
			}
			if !st.TerminatedEarly {
				t.Errorf("%s: streamed LIMIT over %d chunks did not terminate early (%+v)",
					queries[0], rows/64, st)
			}
			if st.ChunksSaved <= 0 {
				t.Errorf("%s: ChunksSaved = %d, want > 0", queries[0], st.ChunksSaved)
			}
		})
	}
}

// seqCSVEnv builds a two-column table whose c0 is the row index — data
// where chunk min/max statistics make ORDER BY bound pruning decisive.
func seqCSVEnv(t *testing.T, rows int) (*dbstore.Store, *dbstore.Table) {
	t.Helper()
	d := vdisk.Unlimited()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*3)
	}
	d.Preload("raw/seq.csv", []byte(sb.String()))
	store := dbstore.NewStore(d)
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
	)
	table, err := store.CreateTable("data", sch, "raw/seq.csv")
	if err != nil {
		t.Fatal(err)
	}
	return store, table
}

// TestOrderByBoundPruning: once a top-k bound exists, chunks whose
// statistics place every row strictly past the cutoff are skipped. The
// sequential path consumes each chunk before the next skip decision, so
// with ascending data the second run (statistics collected by the first)
// must prune nearly the whole file — and still return identical rows.
func TestOrderByBoundPruning(t *testing.T) {
	const rows, chunkLines = 4096, 256 // 16 chunks
	store, table := seqCSVEnv(t, rows)
	op := New(store, table, Config{
		Workers: 0, ChunkLines: chunkLines, CacheChunks: 2,
		Policy: ExternalTables, CollectStats: true,
	})

	asc := "SELECT c0, c1 FROM data ORDER BY c0 LIMIT 10"
	first, _ := execSQL(t, op, asc)
	for i, row := range first.Rows {
		if row[0].Int != int64(i) {
			t.Fatalf("asc row %d = %v, want c0=%d", i, row, i)
		}
	}
	second, st := execSQL(t, op, asc)
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Errorf("pruned run differs: %v vs %v", second.Rows, first.Rows)
	}
	if st.SkippedChunks < 8 {
		t.Errorf("asc rerun skipped %d chunks, want >= 8 (stats should exclude high chunks)", st.SkippedChunks)
	}

	desc := "SELECT c0, c1 FROM data ORDER BY c0 DESC LIMIT 10"
	firstD, _ := execSQL(t, op, desc)
	for i, row := range firstD.Rows {
		if row[0].Int != int64(rows-1-i) {
			t.Fatalf("desc row %d = %v, want c0=%d", i, row, rows-1-i)
		}
	}
	secondD, stD := execSQL(t, op, desc)
	if !reflect.DeepEqual(firstD.Rows, secondD.Rows) {
		t.Errorf("pruned desc run differs: %v vs %v", secondD.Rows, firstD.Rows)
	}
	if stD.SkippedChunks == 0 {
		t.Errorf("desc rerun skipped no chunks, want bound pruning")
	}
}

// TestSharedScanMemberMix: a shared scan terminates early only when EVERY
// member is satisfied. A LIMIT member sharing with an unbounded aggregate
// must not cut the aggregate short.
func TestSharedScanMemberMix(t *testing.T) {
	const rows, cols, k = 2048, 4, 5
	ref := limitReference(t, rows, cols, fmt.Sprintf("SELECT c0, c1 FROM data LIMIT %d", k), k)

	env := newEnv(t, rows, cols, nil)
	op := New(env.store, env.table, Config{
		Workers: 4, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables,
	})
	sch := env.table.Schema()
	parse := func(sql string) *engine.Query {
		q, err := engine.ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return q
	}
	qs := []*engine.Query{
		parse(fmt.Sprintf("SELECT c0, c1 FROM data LIMIT %d", k)),
		parse("SELECT SUM(c0+c1+c2+c3) FROM data"),
	}
	results, st, err := ExecuteQueries(op, qs)
	if err != nil {
		t.Fatal(err)
	}
	if st.TerminatedEarly {
		t.Error("scan with an unbounded member terminated early")
	}
	if !reflect.DeepEqual(results[0].Rows, ref) {
		t.Errorf("limit member rows = %v, want %v", results[0].Rows, ref)
	}
	if got := results[1].Rows[0][0].Int; got != wantSum(env) {
		t.Errorf("aggregate member sum = %d, want %d", got, wantSum(env))
	}
	if !env.table.Complete() {
		t.Error("unbounded member should have driven discovery to end-of-file")
	}
}

// TestSharedScanAllBounded: when every member of a shared scan carries a
// termination signal, the scan stops once the last member is satisfied. The
// members' results are checked with several chunks in flight as well; that
// the scan stopped, on the forced configuration (see discoverTable).
func TestSharedScanAllBounded(t *testing.T) {
	t.Run("multi-slot", func(t *testing.T) { sharedScanAllBounded(t, 8) })
	t.Run("forced", func(t *testing.T) { sharedScanAllBounded(t, 1) })
}

func sharedScanAllBounded(t *testing.T, cacheChunks int) {
	const rows, cols = 4096, 4
	ref5 := limitReference(t, rows, cols, "SELECT c0, c1 FROM data LIMIT 5", 5)
	ref7 := limitReference(t, rows, cols, "SELECT c2, c3 FROM data LIMIT 7", 7)

	env := newEnv(t, rows, cols, nil)
	forced := cacheChunks == 1
	if forced {
		discoverTable(t, env, 64)
	}
	op := New(env.store, env.table, Config{
		Workers: 4, ChunkLines: 64, CacheChunks: cacheChunks, Policy: ExternalTables,
	})
	sch := env.table.Schema()
	parse := func(sql string) *engine.Query {
		q, err := engine.ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return q
	}
	qs := []*engine.Query{
		parse("SELECT c0, c1 FROM data LIMIT 5"),
		parse("SELECT c2, c3 FROM data LIMIT 7"),
	}
	results, st, err := ExecuteQueries(op, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0].Rows, ref5) {
		t.Errorf("member 0 rows = %v, want %v", results[0].Rows, ref5)
	}
	if !reflect.DeepEqual(results[1].Rows, ref7) {
		t.Errorf("member 1 rows = %v, want %v", results[1].Rows, ref7)
	}
	if forced && !st.TerminatedEarly {
		t.Errorf("all-bounded shared scan over %d chunks did not terminate early (%+v)", rows/64, st)
	}
	if forced && st.ChunksSaved <= 0 {
		t.Errorf("ChunksSaved = %d, want > 0", st.ChunksSaved)
	}
}

// TestSafeguardFlushAfterEarlyTermination: the zero-cost guarantee
// survives termination — chunks already converted when the scan stopped
// are still flushed into the database afterwards. A LIMIT stops the forced
// configuration (see discoverTable); with several chunks in flight the scan
// is stopped by a demand the in-flight bound does force.
func TestSafeguardFlushAfterEarlyTermination(t *testing.T) {
	cfg := Config{
		Workers: 4, ChunkLines: 64, CacheChunks: 8,
		Policy: Speculative, Safeguard: true, CollectStats: true,
	}
	check := func(t *testing.T, env *testEnv, op *Operator, st RunStats) {
		t.Helper()
		if !st.TerminatedEarly {
			t.Fatalf("expected early termination, stats %+v", st)
		}
		op.WaitIdle()
		if loaded := env.table.CountLoaded([]int{0, 1}); loaded < 1 {
			t.Errorf("after safeguard flush, loaded chunks = %d, want >= 1", loaded)
		}
		if st.WrittenDuringRun+st.FlushedAfterRun < 1 {
			t.Errorf("no chunk was written or queued for flush: %+v", st)
		}
	}
	t.Run("limit", func(t *testing.T) {
		env := newEnv(t, 4096, 4, nil)
		forced := cfg
		forced.CacheChunks = 1
		op := New(env.store, env.table, forced)
		res, st := execSQL(t, op, "SELECT c0, c1 FROM data LIMIT 5")
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(res.Rows))
		}
		check(t, env, op, st)
	})
	t.Run("multi-slot", func(t *testing.T) {
		env := newEnv(t, 4096, 4, nil)
		op := New(env.store, env.table, cfg)
		req, _ := anyChunksRequest([]int{0, 1}, 5)
		st, err := op.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		check(t, env, op, st)
	})
}

// anyChunksRequest is a request whose demand any n consumed chunks satisfy —
// the shape of a top-k bound or a converged sample, where a LIMIT needs one
// particular chunk. It also returns the number of chunks delivered.
func anyChunksRequest(cols []int, n int64) (Request, *atomic.Int64) {
	var consumed atomic.Int64
	return Request{
		Columns:   cols,
		Deliver:   func(*BinaryChunk) error { consumed.Add(1); return nil },
		Satisfied: func() bool { return consumed.Load() >= n },
	}, &consumed
}

// TestDemandStopsWithinInFlightBound asserts the driver's in-flight bound
// (see walk) from outside, in the regime production runs in: every buffer
// several chunks deep. Once n consumed chunks satisfy the demand, at most the
// bound's worth of chunks issued ahead of the consume stage is still
// delivered — under every schedule, so on 64 chunks the scan must terminate
// early, cold (READ cannot have reached end-of-file) or discovered.
func TestDemandStopsWithinInFlightBound(t *testing.T) {
	const rows, chunks, need = 4096, 64, 5
	cases := []struct {
		name       string
		cfg        Config
		discovered bool
	}{
		{"cold", Config{Workers: 4}, false},
		{"discovered", Config{Workers: 4}, true},
		{"full-load", Config{Workers: 2, Policy: FullLoad}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, rows, 4, nil)
			if c.discovered {
				discoverTable(t, env, 64)
			}
			c.cfg.ChunkLines = 64
			op := New(env.store, env.table, c.cfg)
			eff := op.Config()
			bound := eff.TextBufferChunks + eff.CacheChunks + 2
			if need+bound >= chunks {
				t.Fatalf("bound %d does not force early termination on %d chunks", bound, chunks)
			}
			req, consumed := anyChunksRequest([]int{0, 1}, need)
			st, err := op.Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(consumed.Load()); got != st.Delivered() {
				t.Errorf("consumed %d chunks, RunStats counts %d delivered", got, st.Delivered())
			}
			if st.Delivered() < need || st.Delivered() > need+bound {
				t.Errorf("delivered %d chunks, want %d..%d (in-flight bound %d)",
					st.Delivered(), need, need+bound, bound)
			}
			if !st.TerminatedEarly {
				t.Errorf("scan did not terminate early: %+v", st)
			}
			if c.discovered && st.ChunksSaved != chunks-st.Delivered() {
				t.Errorf("ChunksSaved = %d with %d of %d delivered", st.ChunksSaved, st.Delivered(), chunks)
			}
			if env.table.Complete() != c.discovered {
				t.Errorf("table complete = %v after an early-terminated scan", env.table.Complete())
			}
			op.WaitIdle()
			if s := op.Cache().Stats(); s.PinCount != 0 {
				t.Errorf("run leaked %d pins", s.PinCount)
			}
		})
	}
}

// benchLimitOperator builds a 64-chunk file under the simulated-CPU cost
// model, where conversion dominates — the regime in which stopping the
// scan after the first chunk should pay off by an order of magnitude.
func benchLimitOperator(b *testing.B) *Operator {
	b.Helper()
	d := vdisk.Unlimited()
	spec := gen.CSVSpec{Rows: 16384, Cols: 4, Seed: 7, MaxValue: 1000}
	gen.Preload(d, "raw/bench.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	op := New(store, table, Config{
		Workers: 8, ChunkLines: 256, CacheChunks: 4,
		Policy: ExternalTables, CPUSlowdown: 16,
	})
	// Warm-up completes chunk discovery so both benchmark variants measure
	// steady-state scans over a known catalog.
	req := Request{Columns: []int{0, 1}, Deliver: func(bc *BinaryChunk) error { return nil }}
	if _, err := op.Run(req); err != nil {
		b.Fatal(err)
	}
	return op
}

func benchLimitQuery(b *testing.B, op *Operator) *engine.Query {
	b.Helper()
	q, err := engine.ParseSQL("SELECT c0, c1 FROM bench LIMIT 10", op.Table().Schema())
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkLimitFullScan is the baseline: the same LIMIT query evaluated
// without demand wiring, so the scan converts all 64 chunks.
func BenchmarkLimitFullScan(b *testing.B) {
	op := benchLimitOperator(b)
	q := benchLimitQuery(b, op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Cache().Clear()
		ex, err := engine.NewExecutor(q, op.Table().Schema())
		if err != nil {
			b.Fatal(err)
		}
		req := Request{
			Columns: []int{0, 1},
			Deliver: ex.Consume,
		}
		if _, err := op.Run(req); err != nil {
			b.Fatal(err)
		}
		res, err := ex.Result()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkLimitEarlyTerm is the demand-driven path: the consumer signals
// satisfaction after the first chunk and the scan stops issuing work.
func BenchmarkLimitEarlyTerm(b *testing.B) {
	op := benchLimitOperator(b)
	q := benchLimitQuery(b, op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Cache().Clear()
		res, _, err := ExecuteQuery(op, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}
