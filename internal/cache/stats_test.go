package cache

import (
	"fmt"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Regression: PutPinned used to grant its pin only when the column merge
// into an existing entry succeeded, while still reporting ok — the caller's
// eventual Unpin then underflowed the entry's pin count.
func TestPutPinnedGrantsPinEvenWhenMergeFails(t *testing.T) {
	c := New(4)
	if _, ok := c.PutPinned(mk(1), false); !ok {
		t.Fatal("first PutPinned rejected")
	}

	// Same ID, mismatched row count: Clone+Merge fails, entry survives.
	bad := chunk.NewBinary(sch, 1, 2)
	v := chunk.NewVector(schema.Int64, 2)
	if err := bad.SetColumn(0, v); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.PutPinned(bad, false); !ok {
		t.Fatal("merging PutPinned rejected")
	}

	if err := c.Unpin(1); err != nil {
		t.Fatalf("first unpin: %v", err)
	}
	if err := c.Unpin(1); err != nil {
		t.Fatalf("pin from failed-merge PutPinned was not granted: %v", err)
	}
	if s := c.Stats(); s.PinCount != 0 || s.PinnedEntries != 0 {
		t.Fatalf("pins outstanding after balanced unpins: %+v", s)
	}
}

func TestStats(t *testing.T) {
	c := New(8)
	c.Put(mk(1), false)
	c.Put(mk(2), false)
	c.Put(mk(3), false)
	if c.Acquire(1) == nil {
		t.Fatal("Acquire(1) missed")
	}
	if c.Acquire(1) == nil {
		t.Fatal("second Acquire(1) missed")
	}
	if c.Acquire(2) == nil {
		t.Fatal("Acquire(2) missed")
	}

	s := c.Stats()
	want := Stats{Entries: 3, Bytes: 3 * 16, CapacityBytes: 8 * 16, PinnedEntries: 2, PinCount: 3}
	if s != want {
		t.Fatalf("Stats = %+v, want %+v", s, want)
	}

	for _, id := range []int{1, 1, 2} {
		if err := c.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	s = c.Stats()
	if s.PinnedEntries != 0 || s.PinCount != 0 {
		t.Fatalf("pins remain after release: %+v", s)
	}
}

// TestPinnedCountFollowsPins: the pinned-entry count the insert path reads
// moves on each entry's first pin and last unpin — Acquire,
// AcquireOldestUnloaded, PutPinned new or merged, Unpin — and not on a second
// pin, an eviction or a Clear; with capacity entries pinned a new chunk is
// refused until one is released.
func TestPinnedCountFollowsPins(t *testing.T) {
	c := New(2)
	check := func(step string, want int) {
		t.Helper()
		walked := 0
		for _, e := range c.entries {
			if e.pins > 0 {
				walked++
			}
		}
		if c.pinned != want || walked != want {
			t.Fatalf("after %s: count %d, %d entries pinned; want %d", step, c.pinned, walked, want)
		}
	}
	c.Put(mkCol(1, 0), false)
	check("Put", 0)
	c.PutPinned(mkCol(1, 1), false)
	check("PutPinned merged", 1)
	c.Acquire(1)
	check("second pin", 1)
	if ev, ok := c.PutPinned(mkCol(2, 0), false); !ok || len(ev) != 0 {
		t.Fatalf("PutPinned new: evicted %v, ok %v", ids(ev), ok)
	}
	check("PutPinned new", 2)
	if _, ok := c.Put(mk(3), false); ok {
		t.Fatal("a new chunk was let in with capacity entries pinned")
	}
	check("refused Put", 2)
	for _, id := range []int{1, 1} {
		if err := c.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	check("last Unpin", 1)
	if _, ok := c.Put(mk(3), false); !ok {
		t.Fatal("Put refused with one entry pinned")
	}
	check("evicting Put", 1)
	if bc := c.AcquireOldestUnloaded(); bc == nil || bc.ID != 2 {
		t.Fatalf("oldest unloaded chunk %v, want 2", bc)
	}
	check("AcquireOldestUnloaded of a pinned entry", 1)
	c.Clear()
	check("Clear", 1)
	if got := c.IDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Clear left %v, want the pinned chunk 2", got)
	}
	for i, want := range []int{1, 0} {
		if err := c.Unpin(2); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Unpin %d of 2", i+1), want)
	}
}
