package scanraw

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// TestRegistryStress hammers one registry from many goroutines across
// several raw files while a sweeper concurrently evicts fully-loaded
// operators. Run under -race this guards the registry's locking: lookups
// must never observe a half-installed operator and a sweep must never
// delete an operator out from under a running query. The second shape has
// more chunks per table than a batch holds, so batches fill and commit in
// the background while the sweeper waits for the operators to go idle.
func TestRegistryStress(t *testing.T) {
	for _, sh := range []struct{ rows, chunkLines int }{
		{192, 32}, // 6 chunks: every commit is an end-of-run one
		{384, 8},  // 48 chunks: 6 full batches per table
	} {
		t.Run(fmt.Sprintf("chunks=%d", sh.rows/sh.chunkLines), func(t *testing.T) {
			registryStress(t, sh.rows, sh.chunkLines)
		})
	}
}

func registryStress(t *testing.T, rows, chunkLines int) {
	const (
		nFiles      = 4
		nGoroutines = 8
		nIters      = 12
	)
	d := vdisk.Unlimited()
	store := dbstore.NewStore(d)
	tables := make([]*dbstore.Table, nFiles)
	wants := make([]int64, nFiles)
	for i := range tables {
		spec := gen.CSVSpec{Rows: rows, Cols: 3, Seed: uint64(100 + i), MaxValue: 1000}
		raw := fmt.Sprintf("raw/s%d.csv", i)
		gen.Preload(d, raw, spec)
		table, err := store.CreateTable(fmt.Sprintf("t%d", i), spec.Schema(), raw)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = table
		wants[i] = gen.SumRange(spec, allCols(3), 0, spec.Rows)
	}

	reg := NewRegistry(store)
	cfg := Config{Workers: 2, ChunkLines: chunkLines, CacheChunks: 4, Policy: FullLoad, Safeguard: true}

	// Sweeper: constantly tries to evict fully-loaded operators while the
	// queries below keep recreating and reusing them.
	stop := make(chan struct{})
	var sweeperWG sync.WaitGroup
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Sweep()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < nIters; it++ {
				fi := (g + it) % nFiles
				sql := fmt.Sprintf("SELECT SUM(c0+c1+c2) FROM t%d", fi)
				res, _, err := reg.ExecuteSQL(tables[fi], cfg, sql)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if got := res.Rows[0][0].Int; got != wants[fi] {
					errc <- fmt.Errorf("goroutine %d iter %d: sum = %d, want %d", g, it, got, wants[fi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeperWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The registry is still coherent: every table answers correctly and
	// fully-loaded operators can be swept away completely.
	for i, table := range tables {
		res, _, err := reg.ExecuteSQL(table, cfg, fmt.Sprintf("SELECT SUM(c0+c1+c2) FROM t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int; got != wants[i] {
			t.Errorf("table %d: sum = %d, want %d", i, got, wants[i])
		}
		if !table.FullyLoaded() {
			t.Errorf("table %d not fully loaded after stress", i)
		}
	}
	reg.Sweep()
	if n := reg.Len(); n != 0 {
		t.Errorf("registry holds %d operators after final sweep, want 0", n)
	}
}

// TestFlushGateWaitOverlapsStart: a wait returns once the flushes in flight
// when it was called are done, even if another starts in the meantime — the
// overlap a sync.WaitGroup turns into a panic — and a wait with none in
// flight returns at once.
func TestFlushGateWaitOverlapsStart(t *testing.T) {
	var g flushGate
	g.wait()
	g.start()
	waited := make(chan struct{})
	go func() {
		g.wait()
		close(waited)
	}()
	time.Sleep(time.Millisecond) // let the waiter block
	g.done()
	g.start() // from zero, while the waiter may not have woken yet
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not return after the flush it waited for was done")
	}
	late := make(chan struct{})
	go func() {
		g.wait()
		close(late)
	}()
	select {
	case <-late:
		t.Fatal("wait returned while a flush was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	g.done()
	<-late
}
