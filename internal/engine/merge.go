package engine

import (
	"fmt"
	"sync"
)

// RunMerger streams the merged, canonically ordered output of a set of
// finished partials without materializing it. Each partial's buffered rows
// form one sorted run; Next pops rows across runs with a loser-tree
// tournament, so emitting n rows over k runs costs O(n log k) comparisons.
// This is the merge-on-emit path behind NDJSON streaming of ORDER BY
// queries: rows go out as they win the tournament instead of after a full
// sort-and-truncate, and a LIMIT bounds the number of tournaments played.
type RunMerger struct {
	q       *Query
	runs    [][]prow
	pos     []int // cursor into each run
	k       int   // number of runs (leaf count)
	tree    []int // tree[0] = overall winner; tree[1..k-1] = losers on the path
	emitted int
}

// NewRunMerger takes ownership of the partials' buffered rows (the partials
// are finished and must not be consumed into afterwards), sorts each run,
// and builds the tournament. Aggregate queries have no row runs to merge.
func NewRunMerger(q *Query, parts []*Partial) (*RunMerger, error) {
	if q.IsAggregate() {
		return nil, fmt.Errorf("engine: RunMerger on an aggregate query")
	}
	m := &RunMerger{q: q}
	for _, p := range parts {
		if p == nil {
			continue
		}
		p.done = true
		rows := p.rows
		if p.top != nil {
			rows = p.top.entries
		}
		if len(rows) == 0 {
			continue
		}
		sortProwsQ(q, rows)
		m.runs = append(m.runs, rows)
	}
	m.k = len(m.runs)
	m.pos = make([]int, m.k)
	m.build()
	return m, nil
}

// build plays the initial tournament: winners propagate up, losers stay at
// the internal nodes they lost at.
func (m *RunMerger) build() {
	if m.k == 0 {
		return
	}
	m.tree = make([]int, m.k)
	winners := make([]int, 2*m.k)
	for i := 0; i < m.k; i++ {
		winners[m.k+i] = i
	}
	for i := m.k - 1; i >= 1; i-- {
		a, b := winners[2*i], winners[2*i+1]
		if m.beats(a, b) {
			winners[i], m.tree[i] = a, b
		} else {
			winners[i], m.tree[i] = b, a
		}
	}
	m.tree[0] = winners[1]
}

// beats reports whether run a's current head precedes run b's. An exhausted
// run loses every comparison, so finished runs sink to the tree's losers and
// the winner is exhausted only when every run is.
func (m *RunMerger) beats(a, b int) bool {
	if m.pos[a] >= len(m.runs[a]) {
		return false
	}
	if m.pos[b] >= len(m.runs[b]) {
		return true
	}
	return prowLessQ(m.q, &m.runs[a][m.pos[a]], &m.runs[b][m.pos[b]])
}

// replay re-runs the tournament along run w's leaf-to-root path after its
// cursor advanced.
func (m *RunMerger) replay(w int) {
	winner := w
	for node := (m.k + w) / 2; node >= 1; node /= 2 {
		if m.beats(m.tree[node], winner) {
			m.tree[node], winner = winner, m.tree[node]
		}
	}
	m.tree[0] = winner
}

// Next returns the next row in canonical order, or false when the merge is
// done — all runs exhausted or the query's LIMIT reached.
func (m *RunMerger) Next() ([]Value, bool) {
	if m.k == 0 {
		return nil, false
	}
	if m.q.Limit > 0 && m.emitted >= m.q.Limit {
		return nil, false
	}
	w := m.tree[0]
	if m.pos[w] >= len(m.runs[w]) {
		return nil, false
	}
	row := m.runs[w][m.pos[w]].vals
	m.pos[w]++
	m.replay(w)
	m.emitted++
	return row, true
}

// sortProwsQ sorts rows into the canonical order for q (see prowLessQ).
func sortProwsQ(q *Query, rows []prow) {
	p := &Partial{q: q}
	p.sortProws(rows)
}

// BoundHolder publishes the tightest top-k cutoff any single partial has
// established, under a mutex so the scan's READ goroutine can consult it for
// chunk pruning while delivery goroutines keep consuming. It is inert (Bound
// always false) unless the query is a non-aggregate ORDER BY ... LIMIT,
// the only shape with a sound per-partial bound.
type BoundHolder struct {
	mu     sync.Mutex
	q      *Query
	active bool
	vals   []Value
	ok     bool
}

// bind attaches the holder to q, before first use.
func (b *BoundHolder) bind(q *Query) {
	b.q = q
	b.active = !q.IsAggregate() && q.Limit > 0 && len(q.OrderBy) > 0
}

// Update refreshes the holder from p's heap. The caller must have exclusive
// use of p (i.e. call it where a Consume on p would be legal).
func (b *BoundHolder) Update(p *Partial) {
	if !b.active {
		return
	}
	vals, ok := p.Bound()
	if !ok {
		return
	}
	b.mu.Lock()
	if !b.ok || orderKeyLess(b.q, vals, b.vals) {
		b.vals, b.ok = vals, true
	}
	b.mu.Unlock()
}

// Bound returns the published cutoff row (its full select-list values) and
// whether one exists. The returned slice must not be mutated.
func (b *BoundHolder) Bound() ([]Value, bool) {
	if !b.active {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.vals, b.ok
}

// orderKeyLess compares two select-list rows on the query's ORDER BY keys
// only (no provenance tiebreak): true when a sorts strictly before b.
func orderKeyLess(q *Query, a, b []Value) bool {
	for _, k := range q.OrderBy {
		c := compareValues(a[k.Column], b[k.Column])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}
