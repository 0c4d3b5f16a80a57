package cache

import (
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

var sch = schema.MustNew(
	schema.Column{Name: "a", Type: schema.Int64},
	schema.Column{Name: "b", Type: schema.Int64},
)

func mk(id int) *chunk.BinaryChunk {
	bc := chunk.NewBinary(sch, id, 1)
	v := chunk.NewVector(schema.Int64, 1)
	v.Ints[0] = int64(id)
	if err := bc.SetColumn(0, v); err != nil {
		panic(err)
	}
	return bc
}

// touch is a delivery's use of a cached chunk: Acquire refreshes its LRU
// position, Unpin lets go of it again.
func touch(c *Cache, id int) *chunk.BinaryChunk {
	bc := c.Acquire(id)
	if bc != nil {
		if err := c.Unpin(id); err != nil {
			panic(err)
		}
	}
	return bc
}

// loadedAll is a commit that stored every column of the schema: it marks
// any cached chunk loaded.
var loadedAll = []bool{true, true}

// peek reads a cached chunk without a pin or an LRU touch.
func peek(c *Cache, id int) *chunk.BinaryChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e.bc
	}
	return nil
}

// isLoaded reports whether the cached chunk is marked loaded.
func isLoaded(c *Cache, id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	return ok && e.loaded
}

// oldestUnloaded is AcquireOldestUnloaded with the pin given straight back.
func oldestUnloaded(c *Cache) *chunk.BinaryChunk {
	bc := c.AcquireOldestUnloaded()
	if bc != nil {
		if err := c.Unpin(bc.ID); err != nil {
			panic(err)
		}
	}
	return bc
}

func TestPutGet(t *testing.T) {
	c := New(2)
	if ev, _, ok := c.Put(mk(1), false); !ok || ev != nil {
		t.Fatalf("Put = %v %v", ev, ok)
	}
	if got := touch(c, 1); got == nil || got.ID != 1 {
		t.Errorf("Acquire(1) = %v", got)
	}
	if touch(c, 99) != nil {
		t.Error("Acquire(99) should be nil")
	}
	if peek(c, 1) == nil || peek(c, 2) != nil {
		t.Error("cache contents wrong")
	}
	if c.Len() != 1 || c.Stats().Capacity != 2 {
		t.Errorf("Len/Cap = %d/%d", c.Len(), c.Stats().Capacity)
	}
}

func TestEvictionLRU(t *testing.T) {
	c := New(2)
	c.Put(mk(1), false)
	c.Put(mk(2), false)
	touch(c, 1) // 2 becomes LRU
	ev, _, ok := c.Put(mk(3), false)
	if !ok || ev == nil || ev.ID != 2 {
		t.Errorf("evicted = %v, want chunk 2", ev)
	}
	if peek(c, 1) == nil || peek(c, 3) == nil || peek(c, 2) != nil {
		t.Error("cache contents wrong after eviction")
	}
}

func TestEvictionBiasTowardLoaded(t *testing.T) {
	c := New(2)
	c.Put(mk(1), true)  // loaded, but more recently used below
	c.Put(mk(2), false) // unloaded
	touch(c, 1)
	touch(c, 2)
	// Plain LRU would evict 1 only if least-recent; here 1 is older but
	// both were touched; make 1 most-recent to prove bias wins over LRU.
	touch(c, 1)
	ev, loaded, ok := c.Put(mk(3), false)
	if !ok || ev == nil || ev.ID != 1 || !loaded {
		t.Errorf("bias eviction = %v loaded=%v, want loaded chunk 1", ev, loaded)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c := New(2)
	c.Put(mk(1), false)
	c.Put(mk(2), false)
	if c.Acquire(1) == nil || c.Acquire(2) == nil {
		t.Fatal("pin failed")
	}
	if _, _, ok := c.Put(mk(3), false); ok {
		t.Error("Put should fail when everything is pinned")
	}
	if err := c.Unpin(2); err != nil {
		t.Fatal(err)
	}
	ev, _, ok := c.Put(mk(3), false)
	if !ok || ev == nil || ev.ID != 2 {
		t.Errorf("after unpin, evicted = %v, want 2", ev)
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	if _, _, ok := c.Put(mk(1), false); ok {
		t.Error("zero-capacity cache should accept nothing")
	}
	c2 := New(-5)
	if c2.Stats().Capacity != 0 {
		t.Errorf("negative capacity should clamp to 0, got %d", c2.Stats().Capacity)
	}
}

func TestMarkLoadedAndOldestUnloaded(t *testing.T) {
	c := New(4)
	for i := 1; i <= 3; i++ {
		c.Put(mk(i), false)
	}
	if got := oldestUnloaded(c); got == nil || got.ID != 1 {
		t.Errorf("OldestUnloaded = %v, want 1", got)
	}
	c.Committed(1, loadedAll)
	if !isLoaded(c, 1) || isLoaded(c, 2) {
		t.Error("a covering commit marked the wrong chunks loaded")
	}
	if got := oldestUnloaded(c); got == nil || got.ID != 2 {
		t.Errorf("OldestUnloaded after load = %v, want 2", got)
	}
	c.Committed(2, loadedAll)
	c.Committed(3, loadedAll)
	if got := oldestUnloaded(c); got != nil {
		t.Errorf("all loaded, OldestUnloaded = %v", got)
	}
}

func TestUnloadedIDsOrder(t *testing.T) {
	c := New(4)
	for _, id := range []int{5, 2, 9} {
		c.Put(mk(id), false)
	}
	c.Committed(2, loadedAll)
	got := c.UnloadedIDs()
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("UnloadedIDs = %v, want [5 9] (insertion order)", got)
	}
}

func TestIDsSorted(t *testing.T) {
	c := New(4)
	for _, id := range []int{5, 2, 9} {
		c.Put(mk(id), false)
	}
	got := c.IDs()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Errorf("IDs = %v", got)
	}
}

func TestPutMergeColumns(t *testing.T) {
	c := New(2)
	c.Put(mk(1), true) // has column 0, loaded
	// Same chunk arrives with column 1.
	bc := chunk.NewBinary(sch, 1, 1)
	v := chunk.NewVector(schema.Int64, 1)
	v.Ints[0] = 42
	if err := bc.SetColumn(1, v); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Put(bc, false); !ok {
		t.Fatal("merge Put failed")
	}
	got := peek(c, 1)
	if !got.Has(0) || !got.Has(1) {
		t.Error("merge should keep both columns")
	}
	if isLoaded(c, 1) {
		t.Error("merging unloaded data should clear loaded flag")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestPutPinned(t *testing.T) {
	c := New(1)
	if _, _, ok := c.PutPinned(mk(1), false); !ok {
		t.Fatal("PutPinned failed")
	}
	// Entry is born pinned: a second insert cannot evict it.
	if _, _, ok := c.Put(mk(2), false); ok {
		t.Error("pinned-at-birth entry was evicted")
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Put(mk(2), false); !ok {
		t.Error("after unpin, insert should evict")
	}
	// Merging PutPinned adds a pin to the existing entry.
	c2 := New(2)
	c2.Put(mk(5), false)
	c2.PutPinned(mk(5), false)
	if err := c2.Unpin(5); err != nil {
		t.Errorf("merge should have added a pin: %v", err)
	}
}

func TestClear(t *testing.T) {
	c := New(4)
	c.Put(mk(2), false)
	c.Acquire(2)
	c.Put(mk(3), false)
	c.Clear()
	if peek(c, 3) != nil {
		t.Error("Clear should drop unpinned entries")
	}
	if peek(c, 2) == nil {
		t.Error("Clear must keep pinned entries")
	}
}

// Property: OldestUnloaded always returns the unloaded entry that was
// inserted first, across arbitrary insert/load/get sequences.
func TestOldestUnloadedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(64) // large: no evictions, so insertion order is total
		var insertion []int
		loaded := map[int]bool{}
		inserted := map[int]bool{}
		for _, op := range ops {
			id := int(op % 16)
			switch op % 3 {
			case 0:
				if !inserted[id] {
					c.Put(mk(id), false)
					insertion = append(insertion, id)
					inserted[id] = true
				}
			case 1:
				if inserted[id] {
					c.Committed(id, loadedAll)
					loaded[id] = true
				}
			case 2:
				touch(c, id) // touches LRU, must not affect OldestUnloaded
			}
			var want *int
			for _, cand := range insertion {
				if !loaded[cand] {
					want = &cand
					break
				}
			}
			got := oldestUnloaded(c)
			if want == nil {
				if got != nil {
					return false
				}
			} else if got == nil || got.ID != *want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: cache never exceeds capacity and never loses a pinned chunk,
// under arbitrary operation sequences.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(3)
		pinned := map[int]int{}
		for i, op := range ops {
			id := int(op % 8)
			switch (int(op) + i) % 5 {
			case 0, 1:
				c.Put(mk(id), op%2 == 0)
			case 2:
				if c.Acquire(id) != nil {
					pinned[id]++
				}
			case 3:
				if pinned[id] > 0 {
					if err := c.Unpin(id); err != nil {
						return false
					}
					pinned[id]--
				}
			case 4:
				touch(c, id)
			}
			if c.Len() > 3 {
				return false
			}
			for id, n := range pinned {
				if n > 0 && peek(c, id) == nil {
					return false // pinned chunk evicted
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPendingWrite: a chunk whose write is encoded but not committed is
// neither loaded nor a write candidate, cannot be claimed by a second write,
// and is evicted first, like a loaded one, without asking for a write. Its commit marks it loaded only if the
// database holds every column it caches; a failed commit makes it a candidate
// again.
func TestPendingWrite(t *testing.T) {
	c := New(2)
	c.Put(mk(1), false)
	c.Put(mk(2), false)
	if !c.MarkPending(1) || c.MarkPending(1) || !c.MarkPending(99) {
		t.Fatal("MarkPending claims wrong: want the first claim of 1, not the second, and the absent 99")
	}
	if isLoaded(c, 1) {
		t.Error("a pending chunk counts as loaded")
	}
	if got := c.UnloadedIDs(); len(got) != 1 || got[0] != 2 {
		t.Errorf("UnloadedIDs = %v, want [2]", got)
	}
	if got := oldestUnloaded(c); got == nil || got.ID != 2 {
		t.Errorf("OldestUnloaded = %v, want 2", got)
	}
	touch(c, 1) // 1 is now the most recently used, 2 the LRU
	ev, stored, ok := c.Put(mk(3), false)
	if !ok || ev == nil || ev.ID != 1 || !stored {
		t.Fatalf("evicted %v (stored %v), want the pending chunk 1, stored", ev, stored)
	}

	c.MarkPending(2)
	c.Committed(2, []bool{false, true}) // column 0, which it caches, is not loaded
	if isLoaded(c, 2) {
		t.Error("a commit that missed a cached column marked the chunk loaded")
	}
	if got := c.UnloadedIDs(); len(got) != 2 {
		t.Errorf("after a partial commit UnloadedIDs = %v, want both chunks", got)
	}
	c.MarkPending(3)
	c.Committed(3, nil) // the commit failed
	if isLoaded(c, 3) || len(c.UnloadedIDs()) != 2 {
		t.Error("a failed commit left the chunk pending or loaded")
	}
	c.MarkPending(3)
	c.Committed(3, []bool{true})
	if !isLoaded(c, 3) {
		t.Error("a covering commit did not mark the chunk loaded")
	}
	if c.MarkPending(3) {
		t.Error("a loaded chunk's write was claimed")
	}
	c.Committed(99, []bool{true}) // absent: ignored
}
