package scanraw

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// testEnv bundles a disk, store, table and generated CSV file.
type testEnv struct {
	disk  *vdisk.Disk
	store *dbstore.Store
	table *dbstore.Table
	spec  gen.CSVSpec
}

func newEnv(t *testing.T, rows, cols int, d *vdisk.Disk) *testEnv {
	t.Helper()
	if d == nil {
		d = vdisk.Unlimited()
	}
	spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: 42, MaxValue: 1000}
	gen.Preload(d, "raw/data.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("data", spec.Schema(), "raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{disk: d, store: store, table: table, spec: spec}
}

// cachedChunk looks a chunk up in the operator's cache through a pin it
// gives straight back; nil when the chunk is not cached.
func cachedChunk(t *testing.T, op *Operator, id int) *BinaryChunk {
	t.Helper()
	bc := op.Cache().Acquire(id)
	if bc != nil {
		if err := op.Cache().Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// loadedIDs lists the chunks whose listed columns are all loaded.
func loadedIDs(tbl *dbstore.Table, cols []int) []int {
	var ids []int
	for id := 0; id < tbl.NumChunks(); id++ {
		if m, ok := tbl.Chunk(id); ok && m.LoadedAll(cols) {
			ids = append(ids, id)
		}
	}
	return ids
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// sumViaOperator runs SELECT SUM(all cols) through the operator and
// returns the result plus run stats.
func sumViaOperator(t *testing.T, op *Operator, env *testEnv) (int64, RunStats) {
	t.Helper()
	q, err := engine.SumAllColumns(env.table.Schema(), "data", allCols(env.spec.Cols))
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecuteQuery(op, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("result rows = %d", len(res.Rows))
	}
	return res.Rows[0][0].Int, st
}

func wantSum(env *testEnv) int64 {
	return gen.SumRange(env.spec, allCols(env.spec.Cols), 0, env.spec.Rows)
}

// TestConsumeWorkersAboveOneFails: consume is serial, so an operator
// configured for more consume workers fails its first run with the
// documented error, and one configured for one runs.
func TestConsumeWorkersAboveOneFails(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	nop := func(*BinaryChunk) error { return nil }
	_, err := New(env.store, env.table, Config{ConsumeWorkers: 2}).Run(Request{Columns: []int{0}, Deliver: nop})
	const want = "scanraw: ConsumeWorkers is 2, but consume is serial: it must be 0 or 1"
	if err == nil || err.Error() != want {
		t.Fatalf("run with ConsumeWorkers 2: err = %v, want %q", err, want)
	}
	if _, err := New(env.store, env.table, Config{ConsumeWorkers: 1}).Run(Request{Columns: []int{0}, Deliver: nop}); err != nil {
		t.Fatalf("run with ConsumeWorkers 1: %v", err)
	}
}

func TestExternalTablesCorrectness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 512, 4, nil)
			op := New(env.store, env.table, Config{
				Workers: workers, ChunkLines: 64, Policy: ExternalTables, CacheChunks: 4,
			})
			got, st := sumViaOperator(t, op, env)
			if got != wantSum(env) {
				t.Errorf("sum = %d, want %d", got, wantSum(env))
			}
			if st.DeliveredRaw != 8 {
				t.Errorf("raw chunks = %d, want 8", st.DeliveredRaw)
			}
			if st.WrittenDuringRun != 0 || st.FlushedAfterRun != 0 {
				t.Errorf("external tables must not load: %+v", st)
			}
			if !env.table.Complete() {
				t.Error("first scan should complete chunk discovery")
			}
			if env.table.NumChunks() != 8 {
				t.Errorf("chunks discovered = %d", env.table.NumChunks())
			}
		})
	}
}

func TestRepeatQueryServesFromCache(t *testing.T) {
	env := newEnv(t, 256, 3, nil)
	// Cache big enough for the whole file (4 chunks).
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 8})
	got1, st1 := sumViaOperator(t, op, env)
	got2, st2 := sumViaOperator(t, op, env)
	if got1 != got2 || got1 != wantSum(env) {
		t.Errorf("sums differ: %d %d want %d", got1, got2, wantSum(env))
	}
	if st1.DeliveredCache != 0 || st1.DeliveredRaw != 4 {
		t.Errorf("first run: %+v", st1)
	}
	if st2.DeliveredCache != 4 || st2.DeliveredRaw != 0 || st2.DeliveredDB != 0 {
		t.Errorf("second run should be all-cache: %+v", st2)
	}
}

func TestFullLoadMorphsIntoHeapScan(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 512, 4, nil)
			// Tiny cache so the second query cannot be served from memory.
			op := New(env.store, env.table, Config{
				Workers: workers, ChunkLines: 64, Policy: FullLoad, CacheChunks: 2,
			})
			got1, st1 := sumViaOperator(t, op, env)
			if got1 != wantSum(env) {
				t.Errorf("sum1 = %d", got1)
			}
			if st1.WrittenDuringRun != 8 {
				t.Errorf("full load should write all 8 chunks, wrote %d", st1.WrittenDuringRun)
			}
			if !env.table.FullyLoaded() {
				t.Fatal("table should be fully loaded after ETL run")
			}
			got2, st2 := sumViaOperator(t, op, env)
			if got2 != wantSum(env) {
				t.Errorf("sum2 = %d", got2)
			}
			if st2.DeliveredRaw != 0 {
				t.Errorf("second query should not touch raw data: %+v", st2)
			}
			if st2.DeliveredDB != 8-st2.DeliveredCache {
				t.Errorf("second query sources inconsistent: %+v", st2)
			}
		})
	}
}

func TestSpeculativeSafeguardConvergence(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 512, 4, nil)
			// Cache 1/4 of the 8 chunks, like the paper's Fig. 8 setup.
			op := New(env.store, env.table, Config{
				Workers: workers, ChunkLines: 64, Policy: Speculative,
				CacheChunks: 2, Safeguard: true,
			})
			prevLoaded := 0
			for q := 1; q <= 8; q++ {
				got, _ := sumViaOperator(t, op, env)
				if got != wantSum(env) {
					t.Fatalf("query %d sum = %d, want %d", q, got, wantSum(env))
				}
				op.WaitIdle()
				loaded := env.table.CountLoaded(allCols(env.spec.Cols))
				if loaded < prevLoaded {
					t.Fatalf("loaded count regressed: %d -> %d", prevLoaded, loaded)
				}
				if loaded == prevLoaded && loaded < 8 {
					t.Fatalf("query %d loaded nothing new (%d chunks): safeguard broken", q, loaded)
				}
				prevLoaded = loaded
				if loaded == 8 {
					break
				}
			}
			if prevLoaded != 8 {
				t.Errorf("never converged to full load: %d/8", prevLoaded)
			}
			if !env.table.FullyLoaded() {
				t.Error("table should be fully loaded")
			}
			// Post-convergence queries still answer correctly from the DB.
			got, st := sumViaOperator(t, op, env)
			if got != wantSum(env) || st.DeliveredRaw != 0 {
				t.Errorf("post-convergence: sum=%d stats=%+v", got, st)
			}
		})
	}
}

func TestSpeculativeCPUBoundLoadsEverything(t *testing.T) {
	// When processing is CPU-bound, READ blocks and speculative loading
	// behaves like full loading (paper Fig. 4b, left side). The paper
	// names two causes: slow conversion and slow query execution. A slow
	// Deliver callback triggers the second deterministically — back
	// pressure propagates from the full cache through the position and
	// text buffers down to READ.
	env := newEnv(t, 1024, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative,
		CacheChunks: 2, TextBufferChunks: 4,
	})
	var sum int64
	st, err := op.Run(Request{
		Columns: []int{0, 1, 2, 3},
		Deliver: func(bc *BinaryChunk) error {
			time.Sleep(3 * time.Millisecond) // engine is the bottleneck
			for r := 0; r < bc.Rows; r++ {
				for c := 0; c < 4; c++ {
					sum += bc.Column(c).IntAt(r)
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSum(env) {
		t.Fatalf("sum = %d, want %d", sum, wantSum(env))
	}
	total := env.table.NumChunks()
	if total != 16 {
		t.Fatalf("chunks = %d", total)
	}
	if st.WrittenDuringRun < total/2 {
		t.Errorf("CPU-bound speculative run loaded only %d/%d chunks", st.WrittenDuringRun, total)
	}
}

func TestBufferedLoadWritesOnEviction(t *testing.T) {
	env := newEnv(t, 512, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: BufferedLoad,
		CacheChunks: 2, Safeguard: true,
	})
	got, st := sumViaOperator(t, op, env)
	if got != wantSum(env) {
		t.Fatalf("sum = %d", got)
	}
	op.WaitIdle()
	// 8 chunks, cache 2: at least 6 evictions wrote during the run, the
	// cache remainder flushed after.
	if st.WrittenDuringRun < 6 {
		t.Errorf("buffered load wrote %d during run, want >= 6", st.WrittenDuringRun)
	}
	if got := env.table.CountLoaded(allCols(4)); got != 8 {
		t.Errorf("loaded after flush = %d, want 8", got)
	}
}

// TestInvisibleLoadsFixedAmount: invisible loading writes the first K chunks
// a query converts, and nothing else. The per-query checks hold under every
// schedule; the exact sequence is asserted where it is deterministic
// (workers=0). A chunk served from the cache is not converted and therefore
// never written by that query, and a later insert may evict it — so after
// three queries a chunk may be neither loaded nor cached, which is why the
// test does not add the two up.
func TestInvisibleLoadsFixedAmount(t *testing.T) {
	const k = invisibleChunksPerQuery
	cols := allCols(4)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 512, 4, nil)
			op := New(env.store, env.table, Config{
				Workers: workers, ChunkLines: 64, Policy: Invisible, CacheChunks: 2,
			})
			var written []int
			for q := 1; q <= 3; q++ {
				// Every query needs every column, so a chunk that is loaded or
				// cache-resident when the query starts is not converted by it.
				notConverted := map[int]bool{}
				for _, id := range op.Cache().IDs() {
					notConverted[id] = true
				}
				before := loadedIDs(env.table, cols)
				got, st := sumViaOperator(t, op, env)
				if got != wantSum(env) {
					t.Fatalf("query %d sum = %d", q, got)
				}
				if want := min(k, st.DeliveredRaw+st.DeliveredPartial); st.WrittenDuringRun != want {
					t.Errorf("query %d wrote %d chunks, want %d (converted %d)",
						q, st.WrittenDuringRun, want, st.DeliveredRaw+st.DeliveredPartial)
				}
				after := loadedIDs(env.table, cols)
				if len(after)-len(before) != st.WrittenDuringRun {
					t.Errorf("query %d: loaded chunks %d -> %d, but WrittenDuringRun = %d",
						q, len(before), len(after), st.WrittenDuringRun)
				}
				wasLoaded := map[int]bool{}
				for _, id := range before {
					wasLoaded[id] = true
				}
				for _, id := range after {
					if !wasLoaded[id] && notConverted[id] {
						t.Errorf("query %d loaded chunk %d, which it did not convert", q, id)
					}
				}
				written = append(written, st.WrittenDuringRun)
			}
			if written[0] != k {
				t.Errorf("first query wrote %d chunks, want exactly %d", written[0], k)
			}
			if workers == 0 {
				// Query 2 serves {6,7} from the cache and converts 4 and 5; its
				// inserts evict 6, so query 3 converts (and loads) only that one
				// and chunk 7 stays cache-resident and unloaded.
				if want := []int{4, 2, 1}; !reflect.DeepEqual(written, want) {
					t.Errorf("writes per query = %v, want %v", written, want)
				}
				if ids := op.Cache().UnloadedIDs(); !reflect.DeepEqual(ids, []int{7}) {
					t.Errorf("cached unloaded chunks = %v, want [7]", ids)
				}
			}
		})
	}
}

func TestSelectivePartialColumnLoading(t *testing.T) {
	env := newEnv(t, 256, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: FullLoad, CacheChunks: 1,
	})
	// Query 1 touches only column 1.
	q1, err := engine.ParseSQL("SELECT SUM(c1) FROM data", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ExecuteQuery(op, q1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].Int, gen.SumRange(env.spec, []int{1}, 0, 256); got != want {
		t.Errorf("sum(c1) = %d, want %d", got, want)
	}
	// Only column 1 is loaded; the table is not fully loaded.
	meta, _ := env.table.Chunk(0)
	if !meta.Loaded[1] || meta.Loaded[0] || meta.Loaded[2] {
		t.Errorf("loaded flags = %v, want only c1", meta.Loaded)
	}
	if env.table.FullyLoaded() {
		t.Error("partial column load must not count as fully loaded")
	}
	// Query 2 needs c0+c1: chunks lack c0 in the DB, so raw conversion
	// runs again and loads both columns.
	q2, err := engine.ParseSQL("SELECT SUM(c0+c1) FROM data", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res2, st2, err := ExecuteQuery(op, q2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res2.Rows[0][0].Int, gen.SumRange(env.spec, []int{0, 1}, 0, 256); got != want {
		t.Errorf("sum(c0+c1) = %d, want %d", got, want)
	}
	if st2.DeliveredRaw+st2.DeliveredPartial == 0 {
		t.Error("query 2 should have read raw data for the missing column")
	}
	if st2.DeliveredPartial == 0 {
		t.Error("query 2 should be a partial-width hit: c1 from its pages, only c0 converted")
	}
	// Query 3 over c0+c1 is now served from the database (cache too small).
	_, st3, err := ExecuteQuery(op, q2)
	if err != nil {
		t.Fatal(err)
	}
	if st3.DeliveredRaw != 0 {
		t.Errorf("query 3 should be cache+db only: %+v", st3)
	}
}

func TestStatsChunkSkipping(t *testing.T) {
	env := newEnv(t, 512, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: ExternalTables,
		CacheChunks: 1, CollectStats: true,
	})
	// First query collects stats while converting.
	q, err := engine.ParseSQL("SELECT COUNT(*) FROM data WHERE c0 < 50", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res1, st1, err := ExecuteQuery(op, q)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SkippedChunks != 0 {
		t.Errorf("first query cannot skip (no stats yet): %+v", st1)
	}
	// Second query skips chunks whose min/max exclude the predicate.
	// With values in [0,1000) and 64-row chunks, a chunk without a value
	// < 50 is possible; use an impossible predicate to guarantee skips.
	q2, err := engine.ParseSQL("SELECT COUNT(*) FROM data WHERE c0 < 0", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res2, st2, err := ExecuteQuery(op, q2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SkippedChunks != 8 {
		t.Errorf("impossible predicate should skip all 8 chunks, skipped %d", st2.SkippedChunks)
	}
	if res2.Rows[0][0].Int != 0 {
		t.Errorf("count = %d, want 0", res2.Rows[0][0].Int)
	}
	// Result of the first query must agree with ground truth.
	want := int64(0)
	for r := 0; r < 512; r++ {
		if gen.Value(env.spec, r, 0) < 50 {
			want++
		}
	}
	if res1.Rows[0][0].Int != want {
		t.Errorf("count = %d, want %d", res1.Rows[0][0].Int, want)
	}
}

func TestDeliverErrorPropagates(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64})
	sentinel := errors.New("engine rejected chunk")
	n := 0
	_, err := op.Run(Request{
		Columns: []int{0},
		Deliver: func(bc *BinaryChunk) error {
			n++
			if n == 2 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestDiskFailurePropagates(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	env.disk.SetFailure(func(op, name string) error {
		if op == "read" && name == "raw/data.csv" {
			return vdisk.ErrInjected
		}
		return nil
	})
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64})
	_, err := op.Run(Request{
		Columns: []int{0},
		Deliver: func(*BinaryChunk) error { return nil },
	})
	if !errors.Is(err, vdisk.ErrInjected) {
		t.Errorf("err = %v, want injected disk failure", err)
	}
}

func TestWriteFailurePropagates(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	env.disk.SetFailure(func(op, name string) error {
		if op == "write" {
			return vdisk.ErrInjected
		}
		return nil
	})
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, Policy: FullLoad})
	_, err := op.Run(Request{
		Columns: []int{0},
		Deliver: func(*BinaryChunk) error { return nil },
	})
	if !errors.Is(err, vdisk.ErrInjected) {
		t.Errorf("err = %v, want injected write failure", err)
	}
}

func TestMalformedFilePropagates(t *testing.T) {
	d := vdisk.Unlimited()
	d.Preload("raw/bad.csv", []byte("1,2\n3\n5,6\n")) // row 1 lacks a field
	store := dbstore.NewStore(d)
	spec := gen.CSVSpec{Rows: 3, Cols: 2}
	table, err := store.CreateTable("bad", spec.Schema(), "raw/bad.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		op := New(store, table, Config{Workers: workers, ChunkLines: 8})
		_, err = op.Run(Request{
			Columns: []int{0, 1},
			Deliver: func(*BinaryChunk) error { return nil },
		})
		if err == nil {
			t.Errorf("workers=%d: malformed file should fail", workers)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	env := newEnv(t, 64, 2, nil)
	op := New(env.store, env.table, Config{Workers: 1, ChunkLines: 16})
	deliver := func(*BinaryChunk) error { return nil }
	cases := []Request{
		{Columns: []int{0}},                       // no deliver
		{Columns: nil, Deliver: deliver},          // no columns
		{Columns: []int{1, 0}, Deliver: deliver},  // unsorted
		{Columns: []int{0, 99}, Deliver: deliver}, // out of range
		{Columns: []int{-1, 0}, Deliver: deliver}, // negative
		{Columns: []int{0, 0}, Deliver: deliver},  // repeated
	}
	for i, req := range cases {
		if _, err := op.Run(req); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	d := vdisk.Unlimited()
	d.Preload("raw/empty.csv", nil)
	store := dbstore.NewStore(d)
	spec := gen.CSVSpec{Rows: 0, Cols: 2}
	table, err := store.CreateTable("empty", spec.Schema(), "raw/empty.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		op := New(store, table, Config{Workers: workers, ChunkLines: 8})
		st, err := op.Run(Request{
			Columns: []int{0},
			Deliver: func(*BinaryChunk) error { return nil },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Delivered() != 0 {
			t.Errorf("empty file delivered %d chunks", st.Delivered())
		}
	}
	if !table.Complete() {
		t.Error("empty file scan should mark discovery complete")
	}
}

func TestThrottledDiskEndToEnd(t *testing.T) {
	// Realistic configuration: throttled disk, speculative policy, two
	// queries; validates correctness under real timing contention.
	d := vdisk.New(vdisk.Config{ReadBandwidth: 50 << 20, WriteBandwidth: 50 << 20})
	env := newEnv(t, 2048, 4, d)
	op := New(env.store, env.table, Config{
		Workers: 4, ChunkLines: 256, Policy: Speculative,
		CacheChunks: 2, Safeguard: true,
	})
	for q := 0; q < 3; q++ {
		got, _ := sumViaOperator(t, op, env)
		if got != wantSum(env) {
			t.Fatalf("query %d sum = %d, want %d", q, got, wantSum(env))
		}
	}
}

func TestConcurrentRunsSerialized(t *testing.T) {
	env := newEnv(t, 512, 2, nil)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 2})
	var wg sync.WaitGroup
	sums := make([]int64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int64
			_, err := op.Run(Request{
				Columns: []int{0, 1},
				Deliver: func(bc *BinaryChunk) error {
					for r := 0; r < bc.Rows; r++ {
						sum += bc.Column(0).IntAt(r) + bc.Column(1).IntAt(r)
					}
					return nil
				},
			})
			if err != nil {
				t.Error(err)
			}
			sums[i] = sum
		}(i)
	}
	wg.Wait()
	want := wantSum(env)
	for i, s := range sums {
		if s != want {
			t.Errorf("concurrent run %d sum = %d, want %d", i, s, want)
		}
	}
}
