package scanraw

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/schema"
)

// The resolver table: one 9-chunk table holding a chunk in every state the
// scan driver distinguishes, for a request over columns {0,1}:
//
//	0  cache-resident with the columns (out of range where a Range applies)
//	1  known, nothing loaded, not cached          → raw
//	2  column 0 loaded, column 1 not              → raw + partial plan
//	3  columns 0 and 1 loaded                     → database
//	4  cache-resident with the columns            → cache
//	5  cache-resident with column 2 only          → raw
//	6  statistics exclude the predicate c0 < 2000 → skipped
//	7,8 not yet discovered                        → raw (carved on the way)
const (
	stateRows       = 576
	stateChunkLines = 64
)

var stateCols = []int{0, 1}

func stateTable(t *testing.T, workers int) (*testEnv, *Operator) {
	t.Helper()
	env := newEnv(t, stateRows, 4, nil)
	cfg := Config{Workers: workers, ChunkLines: stateChunkLines, CacheChunks: 16, Policy: ExternalTables}
	op := New(env.store, env.table, cfg)
	nop := func(*BinaryChunk) error { return nil }
	// Chunk 5 enters the cache with column 2 only (discovering 0..5).
	if _, err := op.Run(Request{Columns: []int{2}, Range: &ChunkRange{Lo: 5, Hi: 6}, Deliver: nop}); err != nil {
		t.Fatal(err)
	}
	// A second operator on the same table, whose cache is thrown away,
	// discovers chunk 6 and gives 2 and 3 their pages.
	var mu sync.Mutex
	_, err := New(env.store, env.table, cfg).Run(Request{
		Columns: stateCols,
		Range:   &ChunkRange{Lo: 2, Hi: 7},
		Skip:    func(m *dbstore.ChunkMeta) bool { return m.ID == 5 },
		Deliver: func(bc *BinaryChunk) error {
			mu.Lock()
			defer mu.Unlock()
			switch bc.ID {
			case 2:
				return env.store.WriteChunkColumns(env.table, bc, []int{0})
			case 3:
				return env.store.WriteChunkColumns(env.table, bc, stateCols)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0 and 4 enter the cache with {0,1}.
	for _, id := range []int{0, 4} {
		if _, err := op.Run(Request{Columns: stateCols, Range: &ChunkRange{Lo: id, Hi: id + 1}, Deliver: nop}); err != nil {
			t.Fatal(err)
		}
	}
	far := dbstore.ColStats{Valid: true, Type: schema.Int64, MinInt: 5000, MaxInt: 6000, Rows: stateChunkLines}
	if err := env.table.SetChunkStats(6, []int{0}, []dbstore.ColStats{far}); err != nil {
		t.Fatal(err)
	}
	if got := op.Cache().IDs(); !reflect.DeepEqual(got, []int{0, 4, 5}) || env.table.NumChunks() != 7 || env.table.Complete() {
		t.Fatalf("state table: cached %v, %d known chunks, complete=%v", got, env.table.NumChunks(), env.table.Complete())
	}
	return env, op
}

func stateSkip(t *testing.T, env *testEnv) func(*dbstore.ChunkMeta) bool {
	t.Helper()
	q, err := engine.ParseSQL("SELECT c0 FROM data WHERE c0 < 2000", env.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return SkipFromPredicate(q.Where)
}

// TestResolveTable asserts the resolver's outcome for every chunk state,
// before and after the disk-backed part of the visit sequence has begun.
func TestResolveTable(t *testing.T) {
	env, op := stateTable(t, 0)
	r, err := op.newRun(Request{
		Columns: stateCols,
		Range:   &ChunkRange{Lo: 1},
		Skip:    stateSkip(t, env),
		Deliver: func(*BinaryChunk) error { return nil },
	}, 0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		id           int
		fresh        bool // carved this instant: no metadata yet
		memory, disk source
		convert      []int // partial-width plan: converted from raw ...
		fromDB       []int // ... and read from pages
	}{
		{id: 0, memory: srcNone, disk: srcNone}, // cached, but out of range
		{id: 0, fresh: true, memory: srcNone, disk: srcNone},
		{id: 1, memory: srcNone, disk: srcRaw},
		{id: 2, memory: srcNone, disk: srcPartial, convert: []int{1}, fromDB: []int{0}},
		{id: 3, memory: srcNone, disk: srcDB},
		{id: 4, memory: srcCache, disk: srcCache},
		{id: 5, memory: srcNone, disk: srcRaw},
		{id: 6, memory: srcSkipped, disk: srcSkipped},
		{id: 7, fresh: true, memory: srcRaw, disk: srcRaw},
	}
	for _, c := range cases {
		st := step{id: c.id}
		if !c.fresh {
			st.meta, _ = env.table.Chunk(c.id)
		}
		for _, disk := range []bool{false, true} {
			want := c.memory
			if disk {
				want = c.disk
			}
			r.disk = disk
			res, err := r.resolve(st)
			if err != nil {
				t.Fatal(err)
			}
			if res.src != want {
				t.Errorf("chunk %d (fresh=%v disk=%v): resolved to %d, want %d", c.id, c.fresh, disk, res.src, want)
			}
			if (res.bc != nil) != (res.src == srcCache) {
				t.Errorf("chunk %d: pinned chunk = %v for source %d", c.id, res.bc != nil, res.src)
			}
			if res.bc != nil {
				if err := op.Cache().Unpin(c.id); err != nil {
					t.Fatal(err)
				}
			}
			var convert, fromDB []int
			if res.src == srcPartial {
				convert, fromDB = res.kern.Columns(), res.pageCols
			}
			if wantPlan := disk && c.convert != nil; !wantPlan {
				if res.src == srcPartial {
					t.Errorf("chunk %d (disk=%v): unexpected plan converting %v, reading %v", c.id, disk, convert, fromDB)
				}
			} else if !reflect.DeepEqual(convert, c.convert) || !reflect.DeepEqual(fromDB, c.fromDB) {
				t.Errorf("chunk %d: plan converts %v and reads %v, want %v and %v", c.id, convert, fromDB, c.convert, c.fromDB)
			}
		}
	}
	// The cached-first prefix accounted for a chunk: its file-order visit
	// is out of universe.
	r.delivered[4] = true
	meta, _ := env.table.Chunk(4)
	if res, _ := r.resolve(step{id: 4, meta: meta}); res.src != srcNone {
		t.Errorf("delivered chunk resolved to %d", res.src)
	}
	if s := op.Cache().Stats(); s.PinCount != 0 {
		t.Errorf("resolver leaked %d pins", s.PinCount)
	}
}

// TestDriverSourceCounters drives the state table end to end: a file-order
// visit under a range and a permuted visit, inline and pooled, must deliver
// exactly the chunks the resolver table predicts, each with the right
// content, and account them to the right RunStats source counter.
func TestDriverSourceCounters(t *testing.T) {
	type want struct {
		delivered                        []int
		cache, db, raw, partial, skipped int
	}
	visits := []struct {
		name string
		req  Request
		want want
	}{
		// Chunk 0 is below the range: cached, yet neither delivered nor counted.
		{"file-order", Request{Range: &ChunkRange{Lo: 1}},
			want{[]int{1, 2, 3, 4, 5, 7, 8}, 1, 1, 4, 1, 1}},
		// A permuted visit completes discovery first and has no range.
		{"permuted", Request{Order: func(n int) []int { return revPerm(n) }},
			want{[]int{0, 1, 2, 3, 4, 5, 7, 8}, 2, 1, 4, 1, 1}},
	}
	for _, v := range visits {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(t *testing.T) {
				env, op := stateTable(t, workers)
				var mu sync.Mutex
				var got []int
				req := v.req
				req.Columns = stateCols
				req.Skip = stateSkip(t, env)
				req.Deliver = func(bc *BinaryChunk) error {
					mu.Lock()
					defer mu.Unlock()
					got = append(got, bc.ID)
					var sum int64
					for _, c := range stateCols {
						for r := 0; r < bc.Rows; r++ {
							sum += bc.Column(c).IntAt(r)
						}
					}
					lo := bc.ID * stateChunkLines
					if want := gen.SumRange(env.spec, stateCols, lo, lo+bc.Rows); sum != want {
						t.Errorf("chunk %d: sum %d, want %d", bc.ID, sum, want)
					}
					return nil
				}
				st, err := op.Run(req)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 0 && v.req.Order != nil {
					// Inline delivery order is the visit order.
					want := []int{8, 7, 5, 4, 3, 2, 1, 0}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("delivery order %v, want %v", got, want)
					}
				}
				sort.Ints(got)
				if !reflect.DeepEqual(got, v.want.delivered) {
					t.Errorf("delivered %v, want %v", got, v.want.delivered)
				}
				w := v.want
				if st.DeliveredCache != w.cache || st.DeliveredDB != w.db || st.DeliveredRaw != w.raw ||
					st.DeliveredPartial != w.partial || st.SkippedChunks != w.skipped {
					t.Errorf("cache/db/raw/partial/skipped = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
						st.DeliveredCache, st.DeliveredDB, st.DeliveredRaw, st.DeliveredPartial, st.SkippedChunks,
						w.cache, w.db, w.raw, w.partial, w.skipped)
				}
				if !env.table.Complete() || env.table.NumChunks() != 9 {
					t.Errorf("scan to end-of-file left %d chunks, complete=%v", env.table.NumChunks(), env.table.Complete())
				}
				if s := op.Cache().Stats(); s.PinCount != 0 {
					t.Errorf("run leaked %d pins", s.PinCount)
				}
			})
		}
	}
}

// TestCachedPrefixKeepsFusedRamp: a warm-cache hit that leaves the demand
// open must not lift the slow-start cap — the disk-backed part of a
// LIMIT still starts inside the two-conversion window.
func TestCachedPrefixKeepsFusedRamp(t *testing.T) {
	_, op := stateTable(t, 2) // chunks 0 and 4 are cache-resident with the columns
	r, err := op.newRun(Request{
		Columns:   stateCols,
		Satisfied: func() bool { return false },
		Deliver:   func(*BinaryChunk) error { return nil },
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.rampOpen == nil {
		t.Fatal("demand-driven pooled run has no slow-start ramp")
	}
	if err := r.cachedFirst(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := r.bySource[srcCache].Load(); n != 2 {
		t.Fatalf("cached prefix delivered %d chunks, want 2", n)
	}
	select {
	case <-r.rampOpen:
		t.Error("a cache hit opened the slow-start ramp")
	default:
	}
	if len(r.rampSlots) != rampWindow {
		t.Errorf("ramp window holds %d slots, want %d", len(r.rampSlots), rampWindow)
	}
	if s := op.Cache().Stats(); s.PinCount != 0 {
		t.Errorf("cached prefix leaked %d pins", s.PinCount)
	}
}
