//go:build invariants

package scanraw

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/testutil"
	"scanraw/internal/vdisk"
)

// Regression: a mid-scan Parse failure used to drop pooled positional maps
// on several paths — the parse task's error branch, the parse consumer's
// failed/done drains, and the sequential converter. The invariants-build
// pool gauge turns any such drop into a nonzero delta here. The positional
// map cache stays off so every map's lifetime must end in a recycle.
func TestScanErrorReleasesPositionalMaps(t *testing.T) {
	for _, workers := range []int{0, 4} {
		name := "sequential"
		if workers > 0 {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			const rows, cols = 256, 2
			var sb strings.Builder
			for r := 0; r < rows; r++ {
				if r == rows/2 {
					sb.WriteString("7,notanint\n")
					continue
				}
				sb.WriteString("7,11\n")
			}
			d := vdisk.Unlimited()
			d.Preload("raw/bad.csv", []byte(sb.String()))
			store := dbstore.NewStore(d)
			spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: 1, MaxValue: 100}
			table, err := store.CreateTable("bad", spec.Schema(), "raw/bad.csv")
			if err != nil {
				t.Fatal(err)
			}
			op := New(store, table, Config{
				Workers: workers, ChunkLines: 32, Policy: ExternalTables, CacheChunks: 4,
			})
			q, err := engine.SumAllColumns(table.Schema(), "bad", allCols(cols))
			if err != nil {
				t.Fatal(err)
			}

			base := chunk.OutstandingMaps()
			if _, _, err := ExecuteQuery(op, q); err == nil {
				t.Fatal("scan over malformed file succeeded")
			}
			// Failure teardown is asynchronous: in-flight tasks drain after
			// ExecuteQuery returns its error.
			deadline := time.Now().Add(2 * time.Second)
			for chunk.OutstandingMaps() != base && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := chunk.OutstandingMaps(); got != base {
				t.Errorf("positional maps leaked by failed scan: outstanding %d, want %d", got, base)
			}
		})
	}
}

// A victim whose eviction write fails is out of the cache with no pin left,
// so nothing else will ever recycle it: retireEvicted must return its vectors
// to the pool on that outcome too. Inline, a BufferedLoad run over a cache of
// one ends with exactly one chunk cached whether it ran to the end or died on
// its first eviction, so the two must leave the same number of vectors out.
func TestFailedEvictionWriteRecyclesVictim(t *testing.T) {
	outstandingAfter := func(fail bool) int64 {
		env := newEnv(t, 256, 2, nil)
		if fail {
			env.disk.SetFailure(func(op, name string) error {
				if op == "write" && strings.HasPrefix(name, "db/") {
					return vdisk.ErrInjected
				}
				return nil
			})
		}
		op := New(env.store, env.table, Config{ChunkLines: 64, Policy: BufferedLoad, CacheChunks: 1})
		base := chunk.OutstandingVectors()
		st, err := op.Run(Request{Columns: allCols(2), Deliver: func(*BinaryChunk) error { return nil }})
		if fail != errors.Is(err, vdisk.ErrInjected) {
			t.Fatalf("fail=%v: run returned %v", fail, err)
		}
		if !fail && st.WrittenDuringRun != 3 {
			t.Fatalf("wrote %d chunks on eviction, want 3", st.WrittenDuringRun)
		}
		if n := op.Cache().Len(); n != 1 {
			t.Fatalf("fail=%v: %d chunks cached, want 1", fail, n)
		}
		return chunk.OutstandingVectors() - base
	}
	if ok, failed := outstandingAfter(false), outstandingAfter(true); failed != ok {
		t.Errorf("failed eviction write leaves %d vectors outstanding, a successful one %d", failed, ok)
	}
}

// Page reads take their vectors from the pools and eviction puts them back,
// so over any number of warm passes the vectors outstanding are exactly the
// ones the resident cache entries hold: a put nothing took shows as a gauge
// drifting negative, a take nothing puts as one drifting up.
func TestWarmScanVectorBalance(t *testing.T) {
	for _, workers := range []int{0, 2} {
		name := "inline"
		if workers > 0 {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			const cols, chunks, cacheChunks = 3, 16, 4 // a table four times the cache
			env := newEnv(t, 64*chunks, cols, nil)
			base := chunk.OutstandingVectors()
			op := New(env.store, env.table, Config{Workers: workers, ChunkLines: 64, Policy: FullLoad, CacheChunks: cacheChunks})
			for pass := 0; pass < 3; pass++ {
				// A page-read column is narrow (its values fit int32),
				// and a consumer without a narrow path widens it into
				// a scratch vector of its own and hands that back.
				narrow := 0
				st, err := op.Run(Request{Columns: allCols(cols), Deliver: func(bc *BinaryChunk) error {
					for _, c := range allCols(cols) {
						if v := bc.Column(c); v.Int32 != nil {
							narrow++
							_, wide := chunk.Widen(v)
							chunk.PutVector(wide)
						}
					}
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				// A chunk read back from int32 pages costs the cache half a
				// full-width chunk, so it holds twice cacheChunks of them.
				if pass > 0 && st.DeliveredDB < chunks-2*cacheChunks {
					t.Fatalf("warm pass %d read %d chunks from pages, want at least %d", pass, st.DeliveredDB, chunks-2*cacheChunks)
				}
				if pass > 0 && narrow < cols*(chunks-2*cacheChunks) {
					t.Fatalf("warm pass %d delivered %d narrow columns, want at least %d", pass, narrow, cols*(chunks-2*cacheChunks))
				}
				held := int64(0)
				for _, id := range op.Cache().IDs() {
					held += int64(len(cachedChunk(t, op, id).Present()))
				}
				if got := chunk.OutstandingVectors() - base; got != held {
					t.Errorf("pass %d: %d vectors outstanding, resident cache entries hold %d", pass, got, held)
				}
			}
		})
	}
}

// Clearing the cache hands back what its entries held: after a cold scan and
// a warm one (pages decoded into pooled vectors), the vectors out are the
// cache's, and after Clear none are, so the next page read reuses them.
func TestClearRecyclesCachedVectors(t *testing.T) {
	const cols, chunks = 3, 16
	env := newEnv(t, 64*chunks, cols, nil)
	base := chunk.OutstandingVectors()
	op := New(env.store, env.table, Config{ChunkLines: 64, Policy: FullLoad, CacheChunks: 4})
	req := Request{Columns: allCols(cols), Deliver: func(*BinaryChunk) error { return nil }}
	for pass := 0; pass < 2; pass++ {
		if _, err := op.Run(req); err != nil {
			t.Fatal(err)
		}
	}
	if op.Cache().Len() == 0 || chunk.OutstandingVectors() == base {
		t.Fatalf("the scans left %d entries and %d vectors out; the check needs both", op.Cache().Len(), chunk.OutstandingVectors()-base)
	}
	op.Cache().Clear()
	if got := chunk.OutstandingVectors() - base; got != 0 {
		t.Errorf("%d vectors out after Clear, want 0", got)
	}
	st, err := op.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeliveredDB != chunks {
		t.Errorf("after Clear %d of %d chunks came from pages", st.DeliveredDB, chunks)
	}
}

// A warm or part-loaded scan cut short — by a satisfied demand, a cancelled
// context, a page read that fails on the driver (the transfer) or on a
// worker (the checksum), or a conversion that fails beside decoded pages —
// hands back everything it took: the vectors out are exactly the ones the
// resident cache entries hold, and no text buffer, pin or goroutine outlives
// the run. The half-loaded table has column 0 in pages and the rest raw, so
// every chunk is one task of text and pages.
func TestCutShortWarmScanLeaksNothing(t *testing.T) {
	const cols, chunks, chunkLines = 3, 16, 64
	req := func(deliver func(*BinaryChunk) error) Request {
		return Request{Columns: allCols(cols), Deliver: deliver}
	}
	limit := func(op *Operator) (RunStats, error) {
		var seen atomic.Int64
		r := req(func(*BinaryChunk) error { seen.Add(1); return nil })
		r.Satisfied = func() bool { return seen.Load() > 0 }
		return op.Run(r)
	}
	cancelled := func(op *Operator) (RunStats, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return op.RunContext(ctx, req(func(*BinaryChunk) error { cancel(); return nil }))
	}
	scan := func(op *Operator) (RunStats, error) {
		return op.Run(req(func(*BinaryChunk) error { return nil }))
	}
	for _, loaded := range [][]int{allCols(cols), {0}} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("loaded=%v/workers=%d", loaded, workers), func(t *testing.T) {
				env := newEnv(t, chunkLines*chunks, cols, nil)
				loader := New(env.store, env.table, Config{ChunkLines: chunkLines, Policy: FullLoad})
				if _, err := loader.Run(Request{Columns: loaded, Deliver: func(*BinaryChunk) error { return nil }}); err != nil {
					t.Fatal(err)
				}
				m5, _ := env.table.Chunk(5)
				g5 := m5.Groups[0] // chunk 5's first page, in the commit blob it shares
				seg := "db/data/" + g5.Seg
				page, err := env.disk.ReadBlob(seg)
				if err != nil {
					t.Fatal(err)
				}
				failReads := func() {
					env.disk.SetFailure(func(op, name string) error {
						if op == "read" && strings.HasPrefix(name, "db/") {
							return vdisk.ErrInjected
						}
						return nil
					})
				}
				flipByte := func() {
					bad := append([]byte(nil), page...)
					bad[g5.Off+g5.Len/2] ^= 0xFF
					env.disk.Preload(seg, bad)
				}
				raw, err := env.disk.ReadBlob("raw/data.csv")
				if err != nil {
					t.Fatal(err)
				}
				badCell := func() { // column 1 of chunk 5's first row, converted after its pages are decoded
					meta, _ := env.table.Chunk(5)
					bad := append([]byte(nil), raw...)
					bad[meta.RawOff+int64(bytes.IndexByte(raw[meta.RawOff:], ','))+1] = 'x'
					env.disk.Preload("raw/data.csv", bad)
				}
				cuts := []struct {
					name  string
					setup func()
					run   func(*Operator) (RunStats, error)
					want  func(error) bool
				}{
					{"limit", func() {}, limit, func(err error) bool { return err == nil }},
					{"cancelled", func() {}, cancelled, func(err error) bool { return errors.Is(err, context.Canceled) }},
					{"transfer fails", failReads, scan, func(err error) bool { return errors.Is(err, vdisk.ErrInjected) }},
					{"checksum fails", flipByte, scan, func(err error) bool { return err != nil && strings.Contains(err.Error(), "checksum") }},
					// A fully loaded table never reads the raw file.
					{"conversion fails", badCell, scan, func(err error) bool { return (err != nil) == (len(loaded) < cols) }},
				}
				for _, c := range cuts {
					before := testutil.Snapshot()
					base := chunk.OutstandingVectors()
					// Buffers this small keep the in-flight bound (2 + 4 + 2)
					// under the table's 16 chunks: a LIMIT always stops early.
					op := New(env.store, env.table, Config{Workers: workers, ChunkLines: chunkLines, TextBufferChunks: 2, CacheChunks: 4})
					c.setup()
					st, err := c.run(op)
					env.disk.SetFailure(nil)
					env.disk.Preload(seg, page)
					env.disk.Preload("raw/data.csv", raw)
					if !c.want(err) {
						t.Fatalf("%s: run returned %v", c.name, err)
					}
					if c.name == "limit" {
						if paged := st.DeliveredDB + st.DeliveredPartial; !st.TerminatedEarly || paged == 0 || len(loaded) < cols && st.DeliveredPartial == 0 {
							t.Errorf("%s: terminated early %v, %d chunks from pages of which %d partial", c.name, st.TerminatedEarly, paged, st.DeliveredPartial)
						}
					}
					held := int64(0)
					for _, id := range op.Cache().IDs() {
						held += int64(len(cachedChunk(t, op, id).Present()))
					}
					if got := chunk.OutstandingVectors() - base; got != held {
						t.Errorf("%s: %d vectors outstanding, resident cache entries hold %d", c.name, got, held)
					}
					if n := op.textOut.Load(); n != 0 {
						t.Errorf("%s: %d text buffers out", c.name, n)
					}
					if n := op.Cache().Stats().PinCount; n != 0 {
						t.Errorf("%s: %d pins held", c.name, n)
					}
					if leaked := testutil.LeakedSince(before, 5*time.Second); len(leaked) > 0 {
						t.Errorf("%s: %d goroutines outlive the run:\n%s", c.name, len(leaked), strings.Join(leaked, "\n\n"))
					}
				}
			})
		}
	}
}

// Every text buffer the scanner takes goes back to the operator's free list:
// in run.convert once the kernel returns, or on whichever path drops the
// chunk unconverted — discovery, a chunk outside the range, a satisfied
// demand, a cancelled or failed run. The gauge counts buffers taken and not
// put back, so any drop leaves it above zero once the run has returned.
func TestColdScanTextBalance(t *testing.T) {
	const rows, cols, chunkLines = 1024, 3, 64
	ignore := func(*BinaryChunk) error { return nil }
	for _, workers := range []int{0, 2} {
		name := "inline"
		if workers > 0 {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: workers, ChunkLines: chunkLines, CacheChunks: 4}
			balanced := func(t *testing.T, op *Operator) {
				t.Helper()
				if n := op.textOut.Load(); n != 0 {
					t.Errorf("%d text buffers out after the run returned", n)
				}
			}
			t.Run("cold then known geometry", func(t *testing.T) {
				env := newEnv(t, rows, cols, nil)
				op := New(env.store, env.table, cfg)
				for pass := 0; pass < 2; pass++ { // next, then readExtent
					if got, _ := sumViaOperator(t, op, env); got != wantSum(env) {
						t.Errorf("pass %d: sum %d, want %d", pass, got, wantSum(env))
					}
					balanced(t, op)
				}
			})
			t.Run("limit", func(t *testing.T) {
				env := newEnv(t, rows, cols, nil)
				op := New(env.store, env.table, cfg)
				for pass := 0; pass < 2; pass++ {
					var seen atomic.Int64
					st, err := op.Run(Request{
						Columns:   allCols(cols),
						Deliver:   func(*BinaryChunk) error { seen.Add(1); return nil },
						Satisfied: func() bool { return seen.Load() > 0 },
					})
					if err != nil {
						t.Fatal(err)
					}
					if !st.TerminatedEarly {
						t.Errorf("pass %d: the run was not cut short", pass)
					}
					balanced(t, op)
					op.Cache().Clear()
				}
			})
			t.Run("range and sampled order", func(t *testing.T) {
				env := newEnv(t, rows, cols, nil)
				op := New(env.store, env.table, cfg)
				// Chunks below Lo are carved for their boundary and dropped.
				if _, err := op.Run(Request{Columns: allCols(cols), Deliver: ignore, Range: &ChunkRange{Lo: 5, Hi: 9}}); err != nil {
					t.Fatal(err)
				}
				balanced(t, op)
				// Discovery of the tail past Hi, then extents in reverse.
				reverse := func(n int) []int {
					order := make([]int, n)
					for i := range order {
						order[i] = n - 1 - i
					}
					return order
				}
				op.Cache().Clear()
				if _, err := op.Run(Request{Columns: allCols(cols), Deliver: ignore, Order: reverse}); err != nil {
					t.Fatal(err)
				}
				balanced(t, op)
			})
			t.Run("cancelled", func(t *testing.T) {
				env := newEnv(t, rows, cols, nil)
				op := New(env.store, env.table, cfg)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := op.RunContext(ctx, Request{
					Columns: allCols(cols),
					Deliver: func(*BinaryChunk) error { cancel(); return nil },
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				balanced(t, op)
			})
			t.Run("failed conversion", func(t *testing.T) {
				d := vdisk.Unlimited()
				d.Preload("raw/bad.csv", []byte(strings.Repeat("7,11\n", rows/2)+"7,notanint\n"+strings.Repeat("7,11\n", rows/2)))
				store := dbstore.NewStore(d)
				table, err := store.CreateTable("bad", gen.CSVSpec{Cols: 2}.Schema(), "raw/bad.csv")
				if err != nil {
					t.Fatal(err)
				}
				op := New(store, table, cfg)
				if _, err := op.Run(Request{Columns: allCols(2), Deliver: ignore}); err == nil {
					t.Fatal("scan over a malformed file succeeded")
				}
				balanced(t, op)
			})
		})
	}
}
