package scanraw

import (
	"sync"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// Demand-driven termination: a query whose result is provably complete
// before end-of-file tells the scan to stop issuing chunks. Two query
// shapes admit a sound completeness proof:
//
//   - LIMIT k without ORDER BY: the canonical row order is (chunk ID, row
//     ordinal), so once the contiguous chunk prefix 0..f-1 is fully
//     accounted for (delivered or statistics-skipped) and holds at least k
//     matching rows, no later chunk can displace a retained row — the
//     result is final (limitTracker).
//   - ORDER BY <int column> ... LIMIT k: once any single partial's top-k
//     heap is full, its worst retained row is a cutoff; a chunk whose
//     min/max statistics place every row strictly after the cutoff cannot
//     contribute (boundExcludes). This prunes chunks rather than ending
//     the scan outright, and with enough exclusions the scan runs dry.
//
// Both signals are monotonic: once satisfied (or excluded), always so —
// which is what lets the pipeline poll them racily at chunk boundaries.

// limitTracker decides LIMIT-without-ORDER-BY completeness from per-chunk
// matched-row counts. Chunks arrive in any order (cache first, then file
// order); the counts pass through a Frontier so only the contiguous prefix
// is summed and the proof does not depend on delivery order.
type limitTracker struct {
	mu    sync.Mutex
	k     int
	front *Frontier[int] // matched-row counts by chunk ID
	rows  int            // matching rows within the released prefix
	sat   bool
}

func newLimitTracker(k int) *limitTracker {
	return &limitTracker{k: k, front: NewFrontier[int](0)}
}

// record accounts chunk id with its matched-row count. Duplicate records of
// a chunk are ignored, so Skip callbacks consulted twice (shared scans do
// that) and re-deliveries stay harmless.
func (t *limitTracker) record(id, matched int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sat {
		return
	}
	t.front.Put(id, matched, func(_, m int) { t.rows += m })
	if t.rows >= t.k {
		t.sat = true
	}
}

func (t *limitTracker) satisfied() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sat
}

// boundSource exposes a query's current top-k cutoff row (the executors'
// Bound method).
type boundSource interface {
	Bound() ([]engine.Value, bool)
}

// Demand is the termination/pruning state derived from one query. A nil
// *Demand is valid and inert — every method tolerates it — so callers wire
// it unconditionally and queries without a termination profile cost
// nothing.
type Demand struct {
	tracker *limitTracker // LIMIT without ORDER BY

	// ORDER BY <int column> ... LIMIT bound pruning.
	bound   boundSource
	keyItem int // select-list ordinal of the primary sort key
	keyCol  int // schema ordinal of the underlying column
	desc    bool
}

// NewDemand derives the demand state for q, with src supplying the live
// top-k cutoff for the ORDER BY shape. Returns nil when q admits no sound
// early-termination or pruning rule (aggregates, no LIMIT, ORDER BY over
// anything but a bare Int64 column).
func NewDemand(q *engine.Query, src boundSource) *Demand {
	if q == nil || q.IsAggregate() || q.Limit <= 0 {
		return nil
	}
	if len(q.OrderBy) == 0 {
		return &Demand{tracker: newLimitTracker(q.Limit)}
	}
	// Pruning compares the primary sort key against chunk statistics, so it
	// needs the key to be a bare column of a type the catalog covers.
	k := q.OrderBy[0]
	col, ok := q.Items[k.Column].Expr.(*engine.Col)
	if !ok || col.Typ != schema.Int64 || src == nil {
		return nil
	}
	return &Demand{bound: src, keyItem: k.Column, keyCol: col.Idx, desc: k.Desc}
}

// NewDemandFrom is NewDemand for a range-restricted scan: the LIMIT
// frontier starts at startChunk because chunks below the range never
// arrive — they belong to other peers (or other requests) — and the
// canonical order within the range still begins at its lower bound.
func NewDemandFrom(q *engine.Query, src boundSource, startChunk int) *Demand {
	d := NewDemand(q, src)
	if d != nil && d.tracker != nil && startChunk > 0 {
		d.tracker.front = NewFrontier[int](startChunk)
	}
	return d
}

// SatisfiedFn returns the Request.Satisfied callback, or nil when the query
// has no whole-scan termination signal (the ORDER BY shape only prunes).
func (d *Demand) SatisfiedFn() func() bool {
	if d == nil || d.tracker == nil {
		return nil
	}
	return d.tracker.satisfied
}

// IsSatisfied reports whether the result is already provably final, in
// which case delivering further chunks to the engine is pure waste (they
// cannot displace any retained row) and the consumer may drop them.
func (d *Demand) IsSatisfied() bool {
	return d != nil && d.tracker != nil && d.tracker.satisfied()
}

// RecordChunk accounts a delivered chunk's matched-row count.
func (d *Demand) RecordChunk(id, matched int) {
	if d == nil || d.tracker == nil {
		return
	}
	d.tracker.record(id, matched)
}

// RecordSkip accounts a statistics-skipped chunk: it provably matches no
// rows, so it joins the frontier with a count of zero.
func (d *Demand) RecordSkip(id int) {
	if d == nil || d.tracker == nil {
		return
	}
	d.tracker.record(id, 0)
}

// WrapSkip layers demand bookkeeping over a base chunk-elimination filter:
// base skips are recorded toward the LIMIT frontier, and the ORDER BY shape
// additionally excludes chunks the current top-k cutoff rules out.
func (d *Demand) WrapSkip(base func(*dbstore.ChunkMeta) bool) func(*dbstore.ChunkMeta) bool {
	if d == nil {
		return base
	}
	return func(meta *dbstore.ChunkMeta) bool {
		if base != nil && base(meta) {
			d.RecordSkip(meta.ID)
			return true
		}
		return d.boundExcludes(meta)
	}
}

// boundExcludes reports whether the chunk's statistics prove every row
// sorts strictly after the current top-k cutoff. Strict comparison is what
// makes a single partial's bound sound: the partial alone already retains k
// rows at or before the cutoff, so a strictly-after row can never enter the
// final merged top-k.
func (d *Demand) boundExcludes(meta *dbstore.ChunkMeta) bool {
	if d == nil || d.bound == nil {
		return false
	}
	vals, ok := d.bound.Bound()
	if !ok {
		return false
	}
	key := vals[d.keyItem]
	if d.keyCol >= len(meta.Stats) {
		return false
	}
	st := meta.Stats[d.keyCol]
	if !st.Valid {
		return false
	}
	if d.desc {
		return st.MaxInt < key.Int
	}
	return st.MinInt > key.Int
}

// HasTerminationProfile reports whether q carries a whole-scan termination
// signal — the property the query server's coalescer checks before
// admitting a late query into a shared scan, so an unbounded newcomer
// cannot un-terminate a batch that would otherwise stop early.
func HasTerminationProfile(q *engine.Query) bool {
	return q != nil && !q.IsAggregate() && q.Limit > 0 && len(q.OrderBy) == 0
}
