package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"scanraw/internal/engine"
	"scanraw/internal/queryapi"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
)

// chunkSink writes one chunk's qualifying rows, already cut to the query's
// LIMIT, under the chunk's local ID. /query's sink encodes them as NDJSON
// lines, /exec's as one MsgRows frame. An error kills the stream.
type chunkSink func(id int, rows [][]engine.Value) error

// ndjsonSink is /query's sink: one NDJSON line per row.
func ndjsonSink(nd *queryapi.NDJSON) chunkSink {
	return func(_ int, rows [][]engine.Value) error {
		nd.Rows(rows...)
		return nil
	}
}

// rowEmitter consumes chunks for a non-aggregate, ORDER-BY-free query and
// hands qualifying rows to its sink as they are produced, instead of
// materializing the result. Because chunks arrive in whatever order the
// scan (and, with parallel consume, the fan-out workers) produces them, a
// reorder buffer holds finished chunks until the frontier — the next chunk
// ID to emit — catches up, so the emitted row order is always ascending
// (chunk ID, row ordinal): identical to the materialized path's canonical
// order no matter how delivery was parallelized.
//
// Chunks the scan skips (statistics-based elimination) never arrive, so
// skip decisions are fed in via markSkipped to advance the frontier past
// them.
type rowEmitter struct {
	limit int
	pool  chan *engine.Partial // per-worker evaluation scratch (ChunkRows)
	sink  chunkSink

	mu      sync.Mutex
	next    int // frontier: lowest chunk ID not yet emitted
	emitted int
	ready   map[int][][]engine.Value
	skipped map[int]bool
	werr    error // first sink failure; the stream is dead after it
}

// newRowEmitter validates the query (it must be streamable: no
// aggregation, no ORDER BY) and builds an emitter with one evaluation
// partial per consume worker. start is the first chunk ID the scan can
// deliver — the lower bound of a shard's chunk range.
func newRowEmitter(q *engine.Query, sch *schema.Schema, workers, start int, sink chunkSink) (*rowEmitter, error) {
	if q.IsAggregate() || len(q.OrderBy) > 0 {
		return nil, fmt.Errorf("server: query is not streamable")
	}
	e := &rowEmitter{
		limit:   q.Limit,
		pool:    make(chan *engine.Partial, workers),
		sink:    sink,
		next:    start,
		ready:   make(map[int][][]engine.Value),
		skipped: make(map[int]bool),
	}
	for i := 0; i < workers; i++ {
		p, err := engine.NewPartial(q, sch)
		if err != nil {
			return nil, err
		}
		e.pool <- p
	}
	return e, nil
}

// ConsumeCounted evaluates one chunk and reports how many rows qualified —
// the signal demand-driven termination folds into its LIMIT frontier. Safe
// for concurrent calls (parallel consume): evaluation runs on a pooled
// partial outside the lock; buffering and emission serialize on it.
func (e *rowEmitter) ConsumeCounted(bc *scanraw.BinaryChunk) (int, error) {
	p := <-e.pool
	rows, err := p.ChunkRows(bc)
	e.pool <- p
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ready[bc.ID] = rows
	e.drainLocked()
	return len(rows), nil
}

// markSkipped records a chunk the scan eliminated so the frontier can pass
// it. Idempotent — the shared-scan path consults Skip more than once per
// chunk.
func (e *rowEmitter) markSkipped(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.skipped[id] {
		return
	}
	e.skipped[id] = true
	e.drainLocked()
}

// satisfied reports whether the stream's LIMIT is already met: every
// further chunk is surplus and the scan serving this query may stop.
func (e *rowEmitter) satisfied() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limit > 0 && e.emitted >= e.limit
}

// drainLocked advances the frontier, emitting every buffered chunk that
// became contiguous.
func (e *rowEmitter) drainLocked() {
	for {
		if e.skipped[e.next] {
			delete(e.skipped, e.next)
			e.next++
			continue
		}
		rows, ok := e.ready[e.next]
		if !ok {
			return
		}
		delete(e.ready, e.next)
		e.emitLocked(e.next, rows)
		e.next++
	}
}

// emitLocked hands one chunk's rows to the sink, truncated to what is left
// of the query's LIMIT.
func (e *rowEmitter) emitLocked(id int, rows [][]engine.Value) {
	if e.limit > 0 && len(rows) > e.limit-e.emitted {
		rows = rows[:e.limit-e.emitted]
	}
	if e.werr != nil || len(rows) == 0 {
		return
	}
	if e.werr = e.sink(id, rows); e.werr == nil {
		e.emitted += len(rows)
	}
}

// flush emits out-of-order leftovers (possible only when the query was
// cancelled mid-scan) in ID order.
func (e *rowEmitter) flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]int, 0, len(e.ready))
	for id := range e.ready {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e.emitLocked(id, e.ready[id])
		delete(e.ready, id)
	}
}

// abandon makes every later emission a no-op. It returns once no sink call
// is in flight, so the sink's writer may die after it.
func (e *rowEmitter) abandon() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.werr == nil {
		e.werr = errors.New("server: stream abandoned")
	}
}

// streamMerged finishes an ORDER BY (optionally LIMIT) query served as
// NDJSON without the full-materialization stall: the chunks folded into
// the parallel executor's partials during the scan; now the per-partial
// runs are sorted once and merged on emit through a loser tree
// (engine.RunMerger) — rows reach the client as the merge produces them
// instead of after a monolithic sort of the whole result.
func streamMerged(q *engine.Query, pe *engine.ParallelExecutor, nd *queryapi.NDJSON) error {
	parts, err := pe.Finish()
	if err != nil {
		return err
	}
	m, err := engine.NewRunMerger(q, parts)
	if err != nil {
		return err
	}
	for row, ok := m.Next(); ok; row, ok = m.Next() {
		nd.Rows(row)
	}
	return nil
}
