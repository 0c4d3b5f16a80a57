package scanraw

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// TestCatalogPersistenceAcrossRestart simulates a database restart: load
// a table in full, drop the process state (only the manifest journal and
// the page blobs survive), reopen the durable store on the same directory,
// and verify a fresh operator resumes from the loaded state instead of
// reconverting.
func TestCatalogPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := gen.CSVSpec{Rows: 512, Cols: 3, Seed: 11, MaxValue: 100}
	env, man := openDurableEnv(t, dir, spec)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, Policy: FullLoad, CacheChunks: 2})
	want := gen.SumRange(spec, []int{0, 1, 2}, 0, 512)
	q, err := engine.SumAllColumns(env.table.Schema(), "data", []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := ExecuteQuery(op, q); err != nil || res.Rows[0][0].Int != want {
		t.Fatalf("initial query: %v", err)
	}
	op.WaitIdle()
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": the catalog is rebuilt from the manifest alone.
	env2, man2 := openDurableEnv(t, dir, spec)
	defer man2.Close()
	table2, ok := env2.store.Table("data")
	if !ok {
		t.Fatal("table missing after restart")
	}
	if !table2.FullyLoaded() {
		t.Fatal("recovered catalog lost the load state")
	}
	op2 := New(env2.store, table2, Config{Workers: 2, ChunkLines: 64, CacheChunks: 2})
	res, st, err := ExecuteQuery(op2, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != want {
		t.Errorf("post-restart sum = %d, want %d", res.Rows[0][0].Int, want)
	}
	if st.DeliveredRaw != 0 {
		t.Errorf("post-restart query reconverted %d raw chunks", st.DeliveredRaw)
	}
}

// TestCrossColumnCacheMerging exercises the copy-on-write cache merge: a
// sequence of queries over different column subsets must keep results
// correct while the cache accumulates columns chunk by chunk.
func TestCrossColumnCacheMerging(t *testing.T) {
	env := newEnv(t, 256, 4, nil)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 32, CacheChunks: 16})
	queries := [][]int{{0}, {1}, {0, 1}, {2, 3}, {0, 1, 2, 3}, {1, 3}}
	for i, cols := range queries {
		var sum int64
		_, err := op.Run(Request{
			Columns: cols,
			Deliver: func(bc *BinaryChunk) error {
				for _, c := range cols {
					v := bc.Column(c)
					if v == nil {
						return fmt.Errorf("column %d missing from chunk %d", c, bc.ID)
					}
					for r := 0; r < bc.Rows; r++ {
						sum += v.IntAt(r)
					}
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := gen.SumRange(env.spec, cols, 0, 256); sum != want {
			t.Fatalf("query %d over %v: sum = %d, want %d", i, cols, sum, want)
		}
	}
	// By now chunks in cache should have merged all four columns.
	if bc := op.Cache().Peek(0); bc != nil && !bc.HasAll([]int{0, 1, 2, 3}) {
		t.Errorf("cached chunk 0 has columns %v, want all four merged", bc.Present())
	}
}

// TestRandomWorkloadProperty runs a randomized multi-query workload across
// random policies and verifies every result against the generator's ground
// truth — the system-level invariant that no policy, cache state, or
// loading interleaving may ever change query answers.
func TestRandomWorkloadProperty(t *testing.T) {
	policies := []WritePolicy{ExternalTables, FullLoad, BufferedLoad, Speculative, Invisible}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 128 + rng.Intn(512)
		cols := 2 + rng.Intn(5)
		d := vdisk.Unlimited()
		spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: uint64(seed) + 1, MaxValue: 10000}
		gen.Preload(d, "raw/rand.csv", spec)
		store := dbstore.NewStore(d)
		table, err := store.CreateTable("rand", spec.Schema(), "raw/rand.csv")
		if err != nil {
			t.Fatal(err)
		}
		op := New(store, table, Config{
			Workers:      rng.Intn(5), // 0..4, includes sequential mode
			ChunkLines:   16 << rng.Intn(3),
			CacheChunks:  1 + rng.Intn(6),
			Policy:       policies[rng.Intn(len(policies))],
			Safeguard:    rng.Intn(2) == 0,
			CollectStats: rng.Intn(2) == 0,
		})
		for q := 0; q < 5; q++ {
			// Random column subset (sorted, unique).
			var qc []int
			for c := 0; c < cols; c++ {
				if rng.Intn(2) == 0 {
					qc = append(qc, c)
				}
			}
			if len(qc) == 0 {
				qc = []int{0}
			}
			var sum int64
			var rowsSeen int
			_, err := op.Run(Request{
				Columns: qc,
				Deliver: func(bc *BinaryChunk) error {
					rowsSeen += bc.Rows
					for _, c := range qc {
						for r := 0; r < bc.Rows; r++ {
							sum += bc.Column(c).IntAt(r)
						}
					}
					return nil
				},
			})
			if err != nil {
				t.Fatalf("seed %d query %d (%s): %v", seed, q, op.Config().Policy, err)
			}
			if rowsSeen != rows {
				t.Fatalf("seed %d query %d: saw %d rows, want %d", seed, q, rowsSeen, rows)
			}
			if want := gen.SumRange(spec, qc, 0, rows); sum != want {
				t.Fatalf("seed %d query %d cols %v policy %v: sum = %d, want %d",
					seed, q, qc, op.Config().Policy, sum, want)
			}
		}
		op.WaitIdle()
	}
}

// TestDiskBytesAccounting checks the per-run transfer totals: a first
// external-tables scan reads exactly the raw file; a repeat query from a
// big cache reads nothing.
func TestDiskBytesAccounting(t *testing.T) {
	env := newEnv(t, 512, 2, nil)
	rawSize, err := env.disk.Size("raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 16})
	_, st := sumViaOperator(t, op, env)
	if st.DiskReadBytes != rawSize {
		t.Errorf("first scan read %d bytes, file is %d", st.DiskReadBytes, rawSize)
	}
	if st.DiskWriteBytes != 0 {
		t.Errorf("external tables wrote %d bytes", st.DiskWriteBytes)
	}
	_, st2 := sumViaOperator(t, op, env)
	if st2.DiskReadBytes != 0 || st2.DiskWriteBytes != 0 {
		t.Errorf("all-cache query touched the disk: %+v", st2)
	}
}

// TestConcurrentOperatorsOnSharedStore runs two operators over different
// tables of one store concurrently: the shared disk serializes transfers
// but both queries must complete correctly.
func TestConcurrentOperatorsOnSharedStore(t *testing.T) {
	d := vdisk.Unlimited()
	store := dbstore.NewStore(d)
	specs := make([]gen.CSVSpec, 2)
	tables := make([]*dbstore.Table, 2)
	for i := range specs {
		specs[i] = gen.CSVSpec{Rows: 512, Cols: 3, Seed: uint64(i + 1), MaxValue: 1000}
		name := fmt.Sprintf("t%d", i)
		gen.Preload(d, "raw/"+name, specs[i])
		tbl, err := store.CreateTable(name, specs[i].Schema(), "raw/"+name)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := New(store, tables[i], Config{
				Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true, CacheChunks: 2,
			})
			for q := 0; q < 3; q++ {
				var sum int64
				_, err := op.Run(Request{
					Columns: []int{0, 1, 2},
					Deliver: func(bc *BinaryChunk) error {
						for r := 0; r < bc.Rows; r++ {
							sum += bc.Column(0).IntAt(r) + bc.Column(1).IntAt(r) + bc.Column(2).IntAt(r)
						}
						return nil
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := gen.SumRange(specs[i], []int{0, 1, 2}, 0, 512); sum != want {
					t.Errorf("table %d query %d: sum = %d, want %d", i, q, sum, want)
					return
				}
			}
			op.WaitIdle()
		}(i)
	}
	wg.Wait()
	for i, tbl := range tables {
		if !tbl.FullyLoaded() {
			t.Errorf("table %d not fully loaded after 3 speculative queries", i)
		}
	}
}

// TestSequentialBufferedEviction covers the buffered policy in sequential
// mode, where evictions happen inline.
func TestSequentialBufferedEviction(t *testing.T) {
	env := newEnv(t, 512, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 0, ChunkLines: 64, Policy: BufferedLoad, CacheChunks: 2, Safeguard: true,
	})
	got, st := sumViaOperator(t, op, env)
	if got != wantSum(env) {
		t.Fatalf("sum = %d", got)
	}
	if st.WrittenDuringRun < 6 {
		t.Errorf("sequential buffered wrote %d during run, want >= 6", st.WrittenDuringRun)
	}
	op.WaitIdle()
	if loaded := env.table.CountLoaded([]int{0, 1}); loaded != 8 {
		t.Errorf("loaded = %d, want 8", loaded)
	}
}

// TestSkipAllChunksSecondQuery covers the full chunk-elimination path end
// to end through ExecuteQuery with statistics.
func TestSkipAllChunksSecondQuery(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 32, CollectStats: true, CacheChunks: 1,
	})
	q1, err := engine.ParseSQL("SELECT SUM(c0) FROM data", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteQuery(op, q1); err != nil {
		t.Fatal(err)
	}
	// All values are < 1000 (MaxValue), so this matches everything; no
	// chunk may be skipped (soundness check on the skip filter).
	q2, err := engine.ParseSQL("SELECT COUNT(*) FROM data WHERE c0 < 1000", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecuteQuery(op, q2)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedChunks != 0 {
		t.Errorf("all-matching predicate skipped %d chunks (unsound)", st.SkippedChunks)
	}
	if res.Rows[0][0].Int != 256 {
		t.Errorf("count = %d, want 256", res.Rows[0][0].Int)
	}
}
