package engine

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// boundChunk builds a diffSch chunk whose b column holds the given values.
func boundChunk(t *testing.T, id int, bvals []int64) *chunk.BinaryChunk {
	t.Helper()
	n := len(bvals)
	bc := chunk.NewBinary(diffSch, id, n)
	cols := []*chunk.Vector{
		chunk.NewVector(schema.Int64, n),
		chunk.NewVector(schema.Int64, n),
		chunk.NewVector(schema.Int64, n),
		chunk.NewVector(schema.Float64, n),
		chunk.NewVector(schema.Str, n),
	}
	copy(cols[1].Ints, bvals)
	for r := 0; r < n; r++ {
		cols[4].Strs[r] = "g0"
	}
	for i, v := range cols {
		if err := bc.SetColumn(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// TestExecutorBoundTightens: the top-k cutoff appears once a heap fills
// and only ever tightens as better rows arrive.
func TestExecutorBoundTightens(t *testing.T) {
	q, err := ParseSQL("SELECT b FROM t ORDER BY b LIMIT 5", diffSch)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(q, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Bound(); ok {
		t.Fatal("bound before any rows")
	}
	high := make([]int64, 16)
	for i := range high {
		high[i] = 500 + int64(i)
	}
	if _, err := ex.ConsumeCounted(boundChunk(t, 0, high)); err != nil {
		t.Fatal(err)
	}
	vals, ok := ex.Bound()
	if !ok {
		t.Fatal("no bound after a full heap")
	}
	first := vals[0].Int
	if first < 500 {
		t.Fatalf("bound %d, want >= 500", first)
	}
	if _, err := ex.ConsumeCounted(boundChunk(t, 1, []int64{1, 2, 3, 4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	vals, ok = ex.Bound()
	if !ok {
		t.Fatal("bound vanished")
	}
	if vals[0].Int >= first {
		t.Fatalf("bound did not tighten: %d -> %d", first, vals[0].Int)
	}

	// No ORDER BY, no LIMIT: the holder stays inert.
	q2, err := ParseSQL("SELECT b FROM t", diffSch)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := NewExecutor(q2, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex2.ConsumeCounted(boundChunk(t, 0, high)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex2.Bound(); ok {
		t.Fatal("bound on a query without ORDER BY ... LIMIT")
	}
}
