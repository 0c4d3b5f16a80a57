package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"scanraw/internal/chunk"
	"scanraw/internal/engine"
	"scanraw/internal/queryapi"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
)

// rowBatch is one chunk's qualifying rows in the form their sink writes them
// — NDJSON lines for /query, values for /exec's MsgRows frame. The emitter
// that buffers and orders batches needs only their row count and the LIMIT
// cut.
type rowBatch interface {
	rows() int
	truncate(k int) // keep the first k rows
}

// chunkSink makes one chunk's batch and, once the frontier reaches it, puts
// it on the wire.
type chunkSink[B rowBatch] interface {
	// batch evaluates bc on p, a partial no other call is using. It runs on
	// the consume worker, outside the emitter's lock, so the expensive half
	// of a reply — evaluating and encoding — runs on every worker at once.
	batch(p *engine.Partial, bc *scanraw.BinaryChunk) (B, error)
	// write emits a non-empty batch, already cut to the query's LIMIT,
	// under its chunk's local ID. Calls are serialized and in ID order. An
	// error kills the stream.
	write(id int, b B) error
}

// lineBatch is /query's batch: the rows as NDJSON lines, encoded straight
// from the chunk's projected vectors into a pooled buffer.
type lineBatch struct {
	buf []byte
	n   int
}

var lineBatches = sync.Pool{New: func() any { return new(lineBatch) }}

func (b *lineBatch) rows() int { return b.n }

// truncate cuts after the k-th newline: strings escape theirs, so a raw
// newline always ends a row.
func (b *lineBatch) truncate(k int) {
	end := 0
	for i := 0; i < k; i++ {
		end += bytes.IndexByte(b.buf[end:], '\n') + 1
	}
	b.buf, b.n = b.buf[:end], k
}

// ndjsonSink is /query's sink: one write per chunk.
type ndjsonSink struct{ nd *queryapi.NDJSON }

func (s ndjsonSink) batch(p *engine.Partial, bc *scanraw.BinaryChunk) (*lineBatch, error) {
	b := lineBatches.Get().(*lineBatch)
	err := p.ChunkVectors(bc, func(cols []*chunk.Vector, sel []int, n int) {
		b.buf, b.n = queryapi.AppendChunk(b.buf[:0], cols, sel, n), n
	})
	if err != nil {
		lineBatches.Put(b)
		return nil, err
	}
	return b, nil
}

func (s ndjsonSink) write(_ int, b *lineBatch) error {
	s.nd.RowLines(b.buf, b.n)
	lineBatches.Put(b)
	return nil
}

// valueBatch is /exec's batch: the rows as values.
type valueBatch [][]engine.Value

func (b *valueBatch) rows() int      { return len(*b) }
func (b *valueBatch) truncate(k int) { *b = (*b)[:k] }

// rowEmitter consumes chunks for a non-aggregate, ORDER-BY-free query and
// hands qualifying rows to its sink as they are produced, instead of
// materializing the result. Because chunks arrive in whatever order the
// scan (and, with parallel consume, the fan-out workers) produces them,
// finished batches pass through a scanraw.Frontier, so the emitted row order
// is always ascending (chunk ID, row ordinal): identical to the materialized
// path's canonical order no matter how delivery was parallelized.
//
// Chunks the scan skips (statistics-based elimination) never arrive, so
// skip decisions are fed in via markSkipped and take the chunk's place in
// the frontier.
type rowEmitter[B rowBatch] struct {
	limit int
	pool  chan *engine.Partial // per-worker evaluation scratch
	sink  chunkSink[B]

	mu      sync.Mutex
	front   *scanraw.Frontier[chunkSlot[B]]
	emitted int
	werr    error // first sink failure; the stream is dead after it
}

// chunkSlot is one chunk's place in the emitter's frontier: its batch, or
// nothing when the scan skipped the chunk.
type chunkSlot[B rowBatch] struct {
	b       B
	skipped bool
}

// newRowEmitter validates the query (it must be streamable: no
// aggregation, no ORDER BY) and builds an emitter with one evaluation
// partial per consume worker. start is the first chunk ID the scan can
// deliver — the lower bound of a shard's chunk range.
func newRowEmitter[B rowBatch](q *engine.Query, sch *schema.Schema, workers, start int, sink chunkSink[B]) (*rowEmitter[B], error) {
	if q.IsAggregate() || len(q.OrderBy) > 0 {
		return nil, fmt.Errorf("server: query is not streamable")
	}
	e := &rowEmitter[B]{
		limit: q.Limit,
		pool:  make(chan *engine.Partial, workers),
		sink:  sink,
		front: scanraw.NewFrontier[chunkSlot[B]](start),
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
// for concurrent calls (parallel consume): the sink builds the batch on a
// pooled partial outside the lock; buffering and emission serialize on it.
func (e *rowEmitter[B]) ConsumeCounted(bc *scanraw.BinaryChunk) (int, error) {
	p := <-e.pool
	b, err := e.sink.batch(p, bc)
	e.pool <- p
	if err != nil {
		return 0, err
	}
	n := b.rows() // before write can recycle b
	e.mu.Lock()
	defer e.mu.Unlock()
	e.front.Put(bc.ID, chunkSlot[B]{b: b}, e.emitLocked)
	return n, nil
}

// markSkipped records a chunk the scan eliminated so the frontier can pass
// it. Idempotent — the shared-scan path consults Skip more than once per
// chunk.
func (e *rowEmitter[B]) markSkipped(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.front.Put(id, chunkSlot[B]{skipped: true}, e.emitLocked)
}

// satisfied reports whether the stream's LIMIT is already met: every
// further chunk is surplus and the scan serving this query may stop.
func (e *rowEmitter[B]) satisfied() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limit > 0 && e.emitted >= e.limit
}

// emitLocked hands one chunk's batch to the sink, truncated to what is left
// of the query's LIMIT.
func (e *rowEmitter[B]) emitLocked(id int, s chunkSlot[B]) {
	if s.skipped {
		return
	}
	b := s.b
	if e.limit > 0 && b.rows() > e.limit-e.emitted {
		b.truncate(e.limit - e.emitted)
	}
	n := b.rows()
	if e.werr != nil || n == 0 {
		return
	}
	if e.werr = e.sink.write(id, b); e.werr == nil {
		e.emitted += n
	}
}

// flush emits out-of-order leftovers (possible only when the query was
// cancelled mid-scan) in ID order.
func (e *rowEmitter[B]) flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.front.Drain(e.emitLocked)
}

// abandon makes every later emission a no-op. It returns once no sink call
// is in flight, so the sink's writer may die after it.
func (e *rowEmitter[B]) abandon() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.werr == nil {
		e.werr = errors.New("server: stream abandoned")
	}
}

// streamMerged finishes an ORDER BY (optionally LIMIT) query served as
// NDJSON without the full-materialization stall: the chunks folded into
// the executor's partials during the scan; now the per-partial
// runs are sorted once and merged on emit through a loser tree
// (engine.RunMerger) — rows reach the client as the merge produces them
// instead of after a monolithic sort of the whole result.
func streamMerged(q *engine.Query, pe *engine.Executor, nd *queryapi.NDJSON) error {
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
