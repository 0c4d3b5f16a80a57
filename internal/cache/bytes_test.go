package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// wideSch is four int64 columns; chunks of it have rows rows.
var wideSch = schema.MustNew(
	schema.Column{Name: "a", Type: schema.Int64},
	schema.Column{Name: "b", Type: schema.Int64},
	schema.Column{Name: "c", Type: schema.Int64},
	schema.Column{Name: "d", Type: schema.Int64},
)

const rows = 64

// fullBytes is one full-width chunk of wideSch at 8 bytes a value.
const fullBytes = rows * 4 * 8

// wideChunk holds the listed columns of chunk id as int64 vectors, or as
// int32 ones (the representation an int32 page decodes to) when narrow.
func wideChunk(id int, narrow bool, cols ...int) *chunk.BinaryChunk {
	bc := chunk.NewBinary(wideSch, id, rows)
	for _, c := range cols {
		v := &chunk.Vector{Type: schema.Int64}
		if narrow {
			v.Int32 = make([]int32, rows)
		} else {
			v.Ints = make([]int64, rows)
		}
		if err := bc.SetColumn(c, v); err != nil {
			panic(err)
		}
	}
	return bc
}

var allCols = []int{0, 1, 2, 3}

func ids(ev []Victim) []int {
	var out []int
	for _, v := range ev {
		out = append(out, v.Chunk.ID)
	}
	return out
}

func TestFullWidthChunkCostsOneNth(t *testing.T) {
	const n = 4
	c := New(n)
	for id := range n {
		if ev, ok := c.Put(wideChunk(id, false, allCols...), false); !ok || ev != nil {
			t.Fatalf("insert %d: evicted %v, ok %v; want room for %d full chunks", id, ids(ev), ok, n)
		}
	}
	s := c.Stats()
	if s.Bytes != n*fullBytes || s.CapacityBytes != n*fullBytes {
		t.Fatalf("Stats = %+v, want %d of %d bytes", s, n*fullBytes, n*fullBytes)
	}
	ev, ok := c.Put(wideChunk(n, false, allCols...), false)
	if got := ids(ev); !ok || len(got) != 1 || got[0] != 0 {
		t.Fatalf("insert past the budget evicted %v, want exactly the LRU chunk 0", got)
	}
}

func TestNarrowChunksFitTwice(t *testing.T) {
	const n = 4
	c := New(n)
	for id := range 2 * n {
		if ev, ok := c.Put(wideChunk(id, true, allCols...), false); !ok || ev != nil {
			t.Fatalf("narrow insert %d: evicted %v, ok %v; want room for %d", id, ids(ev), ok, 2*n)
		}
	}
	if s := c.Stats(); s.Entries != 2*n || s.Bytes != s.CapacityBytes {
		t.Fatalf("Stats = %+v, want %d entries filling the budget", s, 2*n)
	}
	if ev, _ := c.Put(wideChunk(2*n, true, allCols...), false); len(ev) != 1 {
		t.Fatalf("narrow insert past the budget evicted %v, want one", ids(ev))
	}
	// A full-width chunk needs two narrow victims.
	if ev, _ := c.Put(wideChunk(99, false, allCols...), false); len(ev) != 2 {
		t.Fatalf("wide insert evicted %v, want two narrow chunks", ids(ev))
	}
}

func TestGrowingMergeEvictsOthersNeverItself(t *testing.T) {
	c := New(2)
	c.Put(wideChunk(0, false, 0, 1), false) // half a chunk, the LRU
	c.Put(wideChunk(1, false, allCols...), false)
	c.Put(wideChunk(2, false, 0, 1), false) // full: 2 chunks held
	touch(c, 1)
	touch(c, 2)
	// Chunk 0, the least recently used, grows by half a chunk: the others
	// make room for it, LRU first, and it is never its own victim.
	ev, ok := c.Put(wideChunk(0, false, 2, 3), false)
	if got := ids(ev); !ok || len(got) != 1 || got[0] != 1 {
		t.Fatalf("growing merge evicted %v, want chunk 1 (the LRU other than 0)", got)
	}
	if got := peek(c, 0); got == nil || !got.HasAll(allCols) {
		t.Fatal("the grown entry lost columns or was evicted")
	}
	if s := c.Stats(); s.Bytes != 3*fullBytes/2 {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, 3*fullBytes/2)
	}
}

// strChunk is chunk id of strSch, a string column of rows 100-byte values:
// 116 bytes a value, over 14 full-width chunks of 8 bytes a value.
func strChunk(id int) *chunk.BinaryChunk {
	bc := chunk.NewBinary(strSch, id, rows)
	v := chunk.NewVector(schema.Str, rows)
	for i := range v.Strs {
		v.Strs[i] = strings.Repeat("x", 100)
	}
	if err := bc.SetColumn(0, v); err != nil {
		panic(err)
	}
	return bc
}

var strSch = schema.MustNew(schema.Column{Name: "s", Type: schema.Str})

func TestOverBudgetOnlyByPinned(t *testing.T) {
	c := New(2)
	// Each chunk alone exceeds the budget; while fewer than capacity chunks
	// are pinned, a pinned insert goes in over it.
	for id := range 2 {
		if ev, ok := c.PutPinned(strChunk(id), false); !ok || ev != nil {
			t.Fatalf("insert %d: evicted %v, ok %v; want it taken over budget", id, ids(ev), ok)
		}
	}
	if s := c.Stats(); s.Bytes != 2*rows*116 || s.CapacityBytes != 2*rows*8 {
		t.Fatalf("Stats = %+v, want %d of %d bytes", s, 2*rows*116, 2*rows*8)
	}
	// Capacity chunks pinned: the cache refuses a new one, evicting nothing.
	if ev, ok := c.Put(strChunk(2), false); ok || ev != nil {
		t.Fatalf("insert with capacity chunks pinned: evicted %v, ok %v; want refused", ids(ev), ok)
	}
	// Unpinned, the next insert evicts every other entry, and each victim
	// comes back; the entry put stays, alone over the budget.
	for id := range 2 {
		if err := c.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	ev, ok := c.Put(strChunk(3), false)
	if got := ids(ev); !ok || len(got) != 2 || got[0]+got[1] != 1 {
		t.Fatalf("insert evicted %v, want chunks 0 and 1", got)
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != rows*116 {
		t.Fatalf("Stats = %+v, want the one entry put", s)
	}
}

// Property: the cached bytes are the sum of the entries' charges, each the
// size of what its chunk holds; every entry that leaves the cache other than
// through Clear comes back as a victim exactly once; and after an insert the
// unpinned entries fit the budget unless the entry put is the only one.
func TestByteLedgerProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(3)
		pinned := map[int]int{}
		for _, op := range ops {
			id := int(op % 8)
			cols := allCols[:1+int(op>>3)%4]
			narrow := op&(1<<5) != 0
			before := map[int]bool{}
			for _, id := range c.IDs() {
				before[id] = true
			}
			var ev []Victim
			put := false
			switch (op >> 6) % 6 {
			case 0, 1:
				ev, _ = c.Put(wideChunk(id, narrow, cols...), op&(1<<9) != 0)
				put = true
			case 2:
				var ok bool
				if ev, ok = c.PutPinned(wideChunk(id, narrow, cols...), false); ok {
					pinned[id]++
				}
				put = true
			case 3:
				if c.Acquire(id) != nil {
					pinned[id]++
				}
			case 4:
				if pinned[id] > 0 {
					if c.Unpin(id) != nil {
						return false
					}
					pinned[id]--
				}
			case 5:
				if op&(1<<10) != 0 {
					c.Clear()
					before = nil
				} else {
					touch(c, id)
				}
			}
			gone := map[int]bool{}
			for id := range before {
				if peek(c, id) == nil {
					gone[id] = true
				}
			}
			for _, v := range ev {
				if !gone[v.Chunk.ID] || pinned[v.Chunk.ID] > 0 {
					return false // a victim that stayed, came back twice or was pinned
				}
				delete(gone, v.Chunk.ID)
			}
			if len(gone) > 0 {
				return false // an entry left without being returned
			}
			c.mu.Lock()
			var sum, loose int64
			unpinned := 0
			for _, e := range c.entries {
				if e.charge != e.bc.Size() {
					c.mu.Unlock()
					return false
				}
				sum += e.charge
				if e.pins == 0 {
					loose += e.charge
					unpinned++
				}
			}
			ok := sum == c.bytes && (!put || loose <= c.budget() || unpinned <= 1)
			c.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkCachePut times the two inserts a scan makes of a chunk the cache
// cannot keep whole: a new full-width chunk that evicts the LRU one, and a
// merge of the missing half into an entry holding the other half.
func BenchmarkCachePut(b *testing.B) {
	const n = 32
	b.Run("evict", func(b *testing.B) {
		c := New(n)
		chunks := make([]*chunk.BinaryChunk, 2*n)
		for i := range chunks {
			chunks[i] = wideChunk(i, false, allCols...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			c.Put(chunks[i%len(chunks)], true)
		}
	})
	b.Run("merge", func(b *testing.B) {
		c := New(n)
		hi := make([]*chunk.BinaryChunk, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%n == 0 {
				// Clear recycles the entries' vectors, so each round puts
				// fresh halves.
				b.StopTimer()
				c.Clear()
				for id := range n {
					c.Put(wideChunk(id, false, 0, 1), true)
					hi[id] = wideChunk(id, false, 2, 3)
				}
				b.StartTimer()
			}
			c.Put(hi[i%n], true)
		}
	})
}
