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
	if c.Peek(1) == nil || c.Peek(2) != nil {
		t.Error("Peek wrong")
	}
	if c.Len() != 1 || c.Cap() != 2 {
		t.Errorf("Len/Cap = %d/%d", c.Len(), c.Cap())
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
	if c.Peek(1) == nil || c.Peek(3) == nil || c.Peek(2) != nil {
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
	if c2.Cap() != 0 {
		t.Errorf("negative capacity should clamp to 0, got %d", c2.Cap())
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
	if !c.MarkLoaded(1) {
		t.Fatal("MarkLoaded(1) failed")
	}
	if !c.IsLoaded(1) || c.IsLoaded(2) {
		t.Error("IsLoaded wrong")
	}
	if got := oldestUnloaded(c); got == nil || got.ID != 2 {
		t.Errorf("OldestUnloaded after load = %v, want 2", got)
	}
	c.MarkLoaded(2)
	c.MarkLoaded(3)
	if got := oldestUnloaded(c); got != nil {
		t.Errorf("all loaded, OldestUnloaded = %v", got)
	}
	if c.MarkLoaded(99) {
		t.Error("MarkLoaded(absent) should report false")
	}
}

func TestUnloadedIDsOrder(t *testing.T) {
	c := New(4)
	for _, id := range []int{5, 2, 9} {
		c.Put(mk(id), false)
	}
	c.MarkLoaded(2)
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
	got := c.Peek(1)
	if !got.Has(0) || !got.Has(1) {
		t.Error("merge should keep both columns")
	}
	if c.IsLoaded(1) {
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
	if c.Peek(3) != nil {
		t.Error("Clear should drop unpinned entries")
	}
	if c.Peek(2) == nil {
		t.Error("Clear must keep pinned entries")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := New(2)
	c.Put(mk(1), false)
	c.Put(mk(2), false)
	c.Peek(1) // must NOT refresh 1
	ev, _, _ := c.Put(mk(3), false)
	if ev == nil || ev.ID != 1 {
		t.Errorf("evicted = %v; Peek should not touch LRU", ev)
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
				if inserted[id] && c.MarkLoaded(id) {
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
				if n > 0 && c.Peek(id) == nil {
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
