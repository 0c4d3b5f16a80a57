//go:build invariants

package cache

import (
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v; want message containing %q", r, substr)
		}
	}()
	f()
}

func TestUnpinAbsentPanicsUnderInvariants(t *testing.T) {
	c := New(2)
	mustPanic(t, "unpin of absent chunk", func() { _ = c.Unpin(99) })
}

func TestUnpinUnderflowPanicsUnderInvariants(t *testing.T) {
	c := New(2)
	c.Put(mk(1), false)
	mustPanic(t, "unpin of unpinned chunk", func() { _ = c.Unpin(1) })
}

// TestClearRecyclesDroppedVectors: Clear hands the vectors of every entry it
// drops back to the pools, and keeps a pinned entry's.
func TestClearRecyclesDroppedVectors(t *testing.T) {
	base := chunk.OutstandingVectors()
	c := New(4)
	for id := 0; id < 3; id++ {
		bc := chunk.NewBinary(sch, id, 8)
		for col := range sch.NumColumns() {
			if err := bc.SetColumn(col, chunk.GetVector(schema.Int64, 8)); err != nil {
				t.Fatal(err)
			}
		}
		c.Put(bc, id%2 == 0)
	}
	c.Acquire(1)
	c.Clear()
	if got := chunk.OutstandingVectors() - base; got != 2 {
		t.Fatalf("%d vectors out after Clear, want the pinned entry's 2", got)
	}
	if err := c.Unpin(1); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if got := chunk.OutstandingVectors() - base; got != 0 {
		t.Fatalf("%d vectors out after clearing every entry, want 0", got)
	}
}
