package cache

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Regression: PutPinned used to grant its pin only when the column merge
// into an existing entry succeeded, while still reporting ok — the caller's
// eventual Unpin then underflowed the entry's pin count.
func TestPutPinnedGrantsPinEvenWhenMergeFails(t *testing.T) {
	c := New(4)
	if _, _, ok := c.PutPinned(mk(1), false); !ok {
		t.Fatal("first PutPinned rejected")
	}

	// Same ID, mismatched row count: Clone+Merge fails, entry survives.
	bad := chunk.NewBinary(sch, 1, 2)
	v := chunk.NewVector(schema.Int64, 2)
	if err := bad.SetColumn(0, v); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.PutPinned(bad, false); !ok {
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
	want := Stats{Entries: 3, Capacity: 8, PinnedEntries: 2, PinCount: 3}
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
