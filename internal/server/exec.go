package server

import (
	"net/http"

	"scanraw/internal/cluster"
	"scanraw/internal/engine"
	"scanraw/internal/queryapi"
	"scanraw/internal/scanraw"
)

// Worker-side distributed execution: POST /exec runs one query over an
// assigned chunk range of a local table and streams the result back to
// the coordinator as CRC-framed cluster messages. Two stream shapes:
//
//   - rows: qualifying rows go out incrementally in canonical (chunk,
//     row) order as MsgRows frames, one per chunk — the shape streamed
//     LIMIT queries need so the coordinator can cancel the scan the
//     moment its global LIMIT is satisfied. The worker's own demand
//     layer terminates the local scan early too.
//   - partial: the scan folds into an engine partial which is serialized
//     (chunk provenance shifted into the global ID space by the
//     assignment's base) and shipped as one MsgPartial frame —
//     the shape aggregates, GROUP BY, and ORDER BY need.
//
// /exec rides the same prologue as /query (bind, then a slot or a 429)
// and the same operator, so remote shards coexist with local serving and
// the operator's run mutex serializes them against coalesced batches.

// handleExec serves one coordinator-assigned shard execution: the same
// pending /query builds — consumer chosen by mode — plus the shard's chunk
// range, which dispatches it solo.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		queryapi.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var er cluster.ExecRequest
	if !queryapi.DecodeBody(w, r, &er) {
		return
	}
	rowsMode := er.Mode == cluster.ModeRows
	if !rowsMode && er.Mode != cluster.ModePartial {
		queryapi.WriteError(w, http.StatusBadRequest, "bad mode %q (want %q or %q)", er.Mode, cluster.ModeRows, cluster.ModePartial)
		return
	}
	if er.Lo < 0 || er.Base < 0 || (er.Hi != 0 && er.Hi <= er.Lo) {
		queryapi.WriteError(w, http.StatusBadRequest, "bad chunk range [%d,%d)+%d", er.Lo, er.Hi, er.Base)
		return
	}
	entry, q, ok := s.bind(w, er.SQL)
	if !ok {
		return
	}
	p := &pending{
		m:      scanraw.Member{Query: q, Range: &scanraw.ChunkRange{Lo: er.Lo, Hi: er.Hi}},
		result: make(chan pendingResult, 1),
	}
	fw := cluster.NewFrameWriter(w)
	var (
		emitter *rowEmitter[*valueBatch]
		ex      *engine.Executor
		err     error
	)
	if rowsMode {
		emitter, err = newRowEmitter(q, entry.table.Schema(), er.Lo, newFrameSink(fw, w, er.Base))
		if err == nil {
			p.m.Consumer, p.m.OnSkip, p.m.Done = emitter, emitter.markSkipped, emitter.satisfied
			// A cancelled scan may still be delivering when this handler
			// returns, and the response writer dies with the handler.
			defer emitter.abandon()
		}
	} else if ex, err = engine.NewExecutor(q, entry.table.Schema()); err == nil {
		p.m.Consumer = ex
	}
	if err != nil {
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Same admission control as /query: remote shards are queries too.
	ctx, release, ok := s.admit(w, r, entry, q, er.TimeoutMS)
	if !ok {
		return
	}
	defer release()
	s.met.execRequests.Add(1)
	p.ctx = ctx

	// The frame stream (and the 200) starts before a rows-mode scan; a
	// partial-mode scan runs before any response byte, so its failures
	// still get real HTTP statuses.
	begin := func() {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
	}
	var inBand func(err error, cancelled bool)
	if rowsMode {
		begin()
		inBand = func(err error, cancelled bool) {
			// Cancelled mid-stream by the coordinator (global LIMIT
			// satisfied, failover): the stream is torn and it has already
			// stopped reading it.
			if !cancelled {
				_ = fw.Error(err.Error())
			}
		}
	}
	pr := s.run(entry, p)
	var payload []byte
	if pr.err == nil && !rowsMode {
		payload, pr.err = shardPartial(ex, er.Base)
	}
	if pr.err != nil {
		s.fail(w, ctx, pr.err, inBand)
		return
	}
	if rowsMode {
		emitter.flush()
	} else {
		begin()
		if err := fw.Partial(payload); err != nil {
			s.accountCancelled(ctx.Err())
			return
		}
	}
	_ = fw.Stats(cluster.ExecStats{
		DeliveredCache:   pr.scan.DeliveredCache,
		DeliveredDB:      pr.scan.DeliveredDB,
		DeliveredRaw:     pr.scan.DeliveredRaw,
		DeliveredPartial: pr.scan.DeliveredPartial,
		Skipped:          pr.scan.SkippedChunks,
		TerminatedEarly:  pr.scan.TerminatedEarly,
		ChunksSaved:      pr.scan.ChunksSaved,
		DurationMS:       float64(pr.scan.Duration.Microseconds()) / 1000,
	})
	_ = fw.End()
}

// frameSink is /exec's sink: one MsgRows frame per chunk, its ID shifted
// into the global space by base, flushed so the coordinator sees rows (and
// can cancel) without waiting for the scan to end.
type frameSink struct {
	fw      *cluster.FrameWriter
	flusher http.Flusher // nil when the response writer cannot flush
	base    int
}

func newFrameSink(fw *cluster.FrameWriter, w http.ResponseWriter, base int) frameSink {
	flusher, _ := w.(http.Flusher)
	return frameSink{fw: fw, flusher: flusher, base: base}
}

func (s frameSink) batch(p *engine.Partial, bc *scanraw.BinaryChunk) (*valueBatch, error) {
	rows, err := p.ChunkRows(bc)
	return (*valueBatch)(&rows), err
}

func (s frameSink) write(id int, b *valueBatch) error {
	if err := s.fw.Rows(s.base+id, *b); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// shardPartial serializes a shard scan's engine partial, chunk provenance
// shifted into the global ID space.
func shardPartial(ex *engine.Executor, base int) ([]byte, error) {
	p, err := ex.Finish()
	if err != nil {
		return nil, err
	}
	return engine.EncodePartial(p, base)
}
