package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// mergeQueries is the non-aggregate corpus for the merge-on-emit path:
// ORDER BY in both directions, with and without LIMIT, with ties on the
// sort key, plus provenance-ordered plain projections.
func mergeQueries(rng *rand.Rand) []string {
	lim := 1 + rng.Intn(30)
	cut := rng.Intn(1000)
	return []string{
		fmt.Sprintf("SELECT a, b FROM t ORDER BY b, a LIMIT %d", lim),
		"SELECT a, b FROM t ORDER BY b DESC, a",
		fmt.Sprintf("SELECT b, f FROM t WHERE a = 3 ORDER BY b LIMIT %d", lim),
		fmt.Sprintf("SELECT s, c FROM t WHERE b >= %d ORDER BY c DESC LIMIT %d", cut, lim),
		"SELECT a, c FROM t ORDER BY a", // heavy ties: provenance tiebreak decides
		fmt.Sprintf("SELECT a, b FROM t LIMIT %d", lim),
		"SELECT a, b, c FROM t",
	}
}

// drainMerger collects every row the merger emits.
func drainMerger(m *RunMerger) [][]Value {
	var out [][]Value
	for {
		row, ok := m.Next()
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

// TestRunMergerMatchesMaterialized: streaming the merged runs of finished
// partials must produce exactly the rows (and order) of the materialized
// Result over the same consumed chunks.
func TestRunMergerMatchesMaterialized(t *testing.T) {
	for round := 0; round < 4; round++ {
		rng := rand.New(rand.NewSource(int64(7000 + round)))
		chunks := diffChunks(t, rng, 6, 256)
		for _, sql := range mergeQueries(rng) {
			q, err := ParseSQL(sql, diffSch)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := runSerial(t, q, chunks)

			parts, err := feedShuffled(t, rng, q, chunks, 4).Finish()
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewRunMerger(q, parts)
			if err != nil {
				t.Fatal(err)
			}
			got := drainMerger(m)
			if len(got) != len(want.Rows) {
				t.Fatalf("%s (round %d): merged %d rows, materialized %d", sql, round, len(got), len(want.Rows))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want.Rows[i]) {
					t.Fatalf("%s (round %d): row %d differs\nmerged:       %v\nmaterialized: %v",
						sql, round, i, got[i], want.Rows[i])
				}
			}
			// The merger is exhausted (or at its LIMIT); further calls stay done.
			if _, ok := m.Next(); ok {
				t.Errorf("%s: Next after exhaustion returned a row", sql)
			}
		}
	}
}

func TestRunMergerRejectsAggregate(t *testing.T) {
	q, err := ParseSQL("SELECT SUM(a) FROM t", diffSch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunMerger(q, nil); err == nil {
		t.Fatal("RunMerger accepted an aggregate query")
	}
}

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
