//go:build !race

package engine

import (
	"fmt"
	"testing"

	"scanraw/internal/chunk"
)

// Allocation counts mean something only without the race detector: under it
// sync.Pool drops a quarter of what it is given back and closures that stay
// on the stack otherwise escape.

// TestGroupByAllocs is the allocation ceiling the clock cannot move:
// BenchmarkGroupBy's body — an executor's whole life over one chunk — and a
// chunk consumed once its groups exist. With one group per row, what a group
// costs is bounded too: at most a third of the untyped state, which spent
// 96 bytes on every select item of every group besides its key.
func TestGroupByAllocs(t *testing.T) {
	for _, c := range groupByCases(t) {
		q, err := ParseSQL(c.sql, c.bc.Schema())
		if err != nil {
			t.Fatal(err)
		}
		run := func(f func() error) float64 {
			return testing.AllocsPerRun(50, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if c.name == "int" {
			if n := run(func() error { return runGroupBy(q, c.bc) }); n > 20 {
				t.Errorf("%s: %v allocations per executor life, want at most 20", c.name, n)
			}
		}
		if c.name != "composite" && c.name != "64k-groups" {
			p, err := NewPartial(q, c.bc.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if n := run(func() error { _, err := p.ConsumeCounted(c.bc); return err }); n != 0 {
				t.Errorf("%s: %v allocations per chunk in steady state, want 0", c.name, n)
			}
		}
		if c.name == "64k-groups" {
			p, err := NewPartial(q, c.bc.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.ConsumeCounted(c.bc); err != nil {
				t.Fatal(err)
			}
			untyped := 8 + 96*len(q.Items) // the int key, then every item's state
			if got := stateBytesPerGroup(p.groups); 3*got > untyped {
				t.Errorf("%s: %d state bytes per group, want at most a third of %d", c.name, got, untyped)
			}
		}
	}
	// The paper's query over cold_sequence's 16 columns, an n-ary sum, and
	// a conjunction, whose selection is refined in place.
	bc := benchChunk(t, 8192, 16)
	for _, sql := range []string{
		"SELECT SUM(c0+c1+c2+c3+c4+c5+c6+c7+c8+c9+c10+c11+c12+c13+c14+c15) FROM t",
		"SELECT COUNT(c1) FROM t WHERE c3 < 40000 AND c5 > 20000",
	} {
		q, err := ParseSQL(sql, bc.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartial(q, bc.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, err := p.ConsumeCounted(bc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per chunk in steady state, want 0", sql, n)
		}
	}
}

// TestTopKAllocs: once the heap is full, a chunk none of whose rows enters
// it allocates nothing — no row, no scratch, and, through an Executor, no
// copy of a bound that did not move.
func TestTopKAllocs(t *testing.T) {
	for _, c := range []struct {
		sql   string
		shift int64 // added to the second chunk's values: every row sorts after the heap's worst
	}{
		{"SELECT c0, c1 FROM t ORDER BY c0 LIMIT 10", 1 << 20},
		{"SELECT c0, c1 FROM t ORDER BY c1 DESC, c0 LIMIT 10", -1 << 20},
		{"SELECT c0 FROM t WHERE c1 > 100 LIMIT 10", 0}, // no ORDER BY: the later chunk ID alone decides
	} {
		first, later := benchChunk(t, 2048, 2), benchChunk(t, 2048, 2)
		later.ID = 1
		for col := 0; col < 2; col++ {
			for r := range later.Column(col).Ints {
				later.Column(col).Ints[r] += c.shift
			}
		}
		q, err := ParseSQL(c.sql, first.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartial(q, first.Schema())
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(q, first.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, consume := range []func(*chunk.BinaryChunk) (int, error){p.ConsumeCounted, ex.ConsumeCounted} {
			if _, err := consume(first); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := p.Bound()
		wantEx, _ := ex.Bound()
		if n := testing.AllocsPerRun(20, func() {
			if _, err := p.ConsumeCounted(later); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations in Partial for a chunk that changes nothing, want 0", c.sql, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := ex.ConsumeCounted(later); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations in Executor for a chunk that changes nothing, want 0", c.sql, n)
		}
		if got, _ := p.Bound(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: bound moved from %v to %v", c.sql, want, got)
		}
		if got, _ := ex.Bound(); fmt.Sprint(got) != fmt.Sprint(wantEx) {
			t.Errorf("%s: executor bound moved from %v to %v", c.sql, wantEx, got)
		}
	}
}

// stateBytesPerGroup is what one group of t takes in its key and state
// columns (a string: its 16-byte header).
func stateBytesPerGroup(t *groupTable) int {
	vec := func(v *chunk.Vector) int { return 8*len(v.Ints) + 8*len(v.Floats) + 16*len(v.Strs) }
	b := 0
	for i := range t.keys {
		b += vec(&t.keys[i])
	}
	for i := range t.accs {
		a := &t.accs[i]
		b += 8*len(a.count) + 8*len(a.sumI) + 8*len(a.sumF) + len(a.seen) + vec(&a.ext)
	}
	return b / t.n
}
