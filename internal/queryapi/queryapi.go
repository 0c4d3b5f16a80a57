// Package queryapi is the POST /query wire format: the request body, the
// stats block, the JSON and NDJSON reply shapes, and the status codes a
// failed or cancelled query maps to. A single scanrawd (internal/server)
// and a fleet coordinator (internal/cluster) both answer /query through
// it, so a client cannot tell them apart.
package queryapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"scanraw/internal/engine"
)

// Request is the POST /query body.
type Request struct {
	SQL string `json:"sql"`
	// TimeoutMS bounds this query; zero falls back to the server default.
	TimeoutMS int64 `json:"timeout_ms"`
}

// Stats is the per-query serving report attached to every result. A
// coordinator sums the scan counters over its shards.
type Stats struct {
	DurationMS      float64 `json:"duration_ms"`
	BatchSize       int     `json:"batch_size"` // queries served by the same physical scan
	ScanChunksCache int     `json:"scan_chunks_cache"`
	ScanChunksDB    int     `json:"scan_chunks_db"`
	ScanChunksRaw   int     `json:"scan_chunks_raw"`
	// ScanChunksPartial counts partial-width hits: chunks served by merging
	// already-loaded column groups with a narrow conversion of the rest.
	ScanChunksPartial int `json:"scan_chunks_partial"`
	ChunksDelivered   int `json:"chunks_delivered"` // to this query, after its skip filter
	ChunksSkipped     int `json:"chunks_skipped"`
	ChunksLoaded      int `json:"chunks_loaded"` // loaded into the database during the scan
	// Policy is the table's write policy, "distributed" from a coordinator.
	Policy string `json:"policy"`
	// TerminatedEarly reports the physical scan stopped before end-of-file
	// because every query it served was provably complete; ChunksSaved is
	// how many chunks that saved reading or converting.
	TerminatedEarly bool `json:"terminated_early"`
	ChunksSaved     int  `json:"chunks_saved"`
	// OLA, present only for sampled (online-aggregation) queries, reports
	// the sampling outcome.
	OLA *OLAStats `json:"ola,omitempty"`

	// Coordinator-only: the shard count, and for a degraded answer the
	// shards that stayed down after retry and failover with their errors.
	Shards       int      `json:"shards,omitempty"`
	ShardsFailed int      `json:"shards_failed,omitempty"`
	Partial      bool     `json:"partial,omitempty"`
	Errors       []string `json:"errors,omitempty"`
}

// OLAStats is the sampling report of an online-aggregation query.
type OLAStats struct {
	ChunksSampled int `json:"chunks_sampled"`
	ChunksTotal   int `json:"chunks_total"`
	// MaxRelError is the worst relative half-width across the result's
	// bounds; -1 when no bound was ever formed (e.g. cancelled before a
	// second chunk was sampled). Exact results report 0.
	MaxRelError float64 `json:"max_rel_error"`
	Converged   bool    `json:"converged"`
	Exact       bool    `json:"exact"`
	Tolerance   float64 `json:"tolerance"`
	Confidence  float64 `json:"confidence"`
	Seed        int64   `json:"seed"`
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON replies with v as a JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a dead client is the request context's business
}

// WriteError replies with the {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody parses a size-capped JSON request body into v, replying 400
// and reporting false when it is malformed.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

// WithTimeout bounds ctx by the request's timeout_ms, or by def when the
// request carries none; with neither the query is unbounded.
func WithTimeout(ctx context.Context, timeoutMS int64, def time.Duration) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		def = time.Duration(timeoutMS) * time.Millisecond
	}
	if def <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, def)
}

// statusClientClosedRequest is nginx's conventional status for a client
// that went away before the response; nothing reads it, but logs do.
const statusClientClosedRequest = 499

// WriteContextError reports a query cut short by its context to a client
// whose response has not started yet: 504 for a timeout, 499 otherwise (a
// disconnect — the response writer is dead, the status is for the log).
func WriteContextError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		WriteError(w, http.StatusGatewayTimeout, "query timed out")
		return
	}
	WriteError(w, statusClientClosedRequest, "query cancelled")
}

// WriteResult replies with a materialized result as one JSON document,
// {"columns":[...],"rows":[[...],...],"stats":{...}}: the rows by the row
// encoder (encode.go), the rest by encoding/json.
func WriteResult(w http.ResponseWriter, cols []string, rows [][]engine.Value, st Stats) {
	head, _ := json.Marshal(cols) // strings always marshal
	tail, err := json.Marshal(st)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding stats: %v", err)
		return
	}
	buf := append([]byte(`{"columns":`), head...)
	buf = AppendRows(append(buf, `,"rows":`...), rows)
	buf = append(append(append(buf, `,"stats":`...), tail...), '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // a dead client is the request context's business
}

// flushEvery is the row cadence of an NDJSON stream: buffered rows are
// written, and the response flushed, each time the row count passes a
// multiple of it, so a large result streams instead of buffering.
const flushEvery = 1024

// NDJSON writes a ?stream=ndjson reply: a columns header, one line per row
// (or per converging estimate), and a trailer that is the stats block on
// success and an in-band error otherwise — the HTTP status is long gone by
// then. Rows handed over as values are buffered across calls and written
// every flushEvery rows, before any Line and with the trailer, so a caller
// with one row at a time does not pay a write per row; a chunk encoded by
// its producer (AppendChunk) is written as it is. It is safe for concurrent
// use: rows arrive from the scan's delivering goroutine while the handler may
// already be failing the stream. A write to a dead client fails silently: its request
// context ends the query.
type NDJSON struct {
	w http.ResponseWriter

	mu      sync.Mutex
	started bool // Header is out
	flusher http.Flusher
	buf     []byte // lines not yet written
	emitted int    // rows so far, buffered ones included
	closed  bool
}

// NewNDJSON prepares a stream over w; nothing is written before Header.
func NewNDJSON(w http.ResponseWriter) *NDJSON { return &NDJSON{w: w} }

// Header commits the 200 and emits the columns line. It must happen before
// anything can push rows.
func (n *NDJSON) Header(cols []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.w.Header().Set("Content-Type", "application/x-ndjson")
	n.w.WriteHeader(http.StatusOK)
	n.started = true
	n.flusher, _ = n.w.(http.Flusher)
	n.lineLocked(map[string]any{"columns": cols})
	n.writeLocked()
}

// Started reports whether the header is out, after which errors can only
// be reported in-band. A nil stream never started.
func (n *NDJSON) Started() bool {
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.started
}

// Rows emits one line per row; rows after the trailer are dropped.
func (n *NDJSON) Rows(rows ...[]engine.Value) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || !n.started {
		return
	}
	for _, row := range rows {
		n.buf = append(appendRow(n.buf, row), '\n')
		if n.emitted++; n.emitted%flushEvery == 0 {
			n.writeLocked()
			n.flushLocked()
		}
	}
}

// RowLines emits rows already encoded as lines (AppendChunk) in one write;
// lines must not be touched until it returns.
func (n *NDJSON) RowLines(lines []byte, rows int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || !n.started {
		return
	}
	n.writeLocked() // rows buffered before these come first
	_, _ = n.w.Write(lines)
	before := n.emitted / flushEvery
	if n.emitted += rows; n.emitted/flushEvery != before {
		n.flushLocked()
	}
}

// Line emits an arbitrary line and flushes at once — the converging
// estimates of an online-aggregation stream, which exist to be seen live.
func (n *NDJSON) Line(v any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || !n.started {
		return
	}
	n.lineLocked(v)
	n.writeLocked()
	n.flushLocked()
}

// Stats closes the stream with the stats trailer.
func (n *NDJSON) Stats(st Stats) { n.trailer(map[string]any{"stats": st}) }

// Error closes the stream with an in-band error line.
func (n *NDJSON) Error(err error) { n.trailer(map[string]any{"error": err.Error()}) }

// trailer writes what is buffered and v as the stream's last write.
func (n *NDJSON) trailer(v any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	if n.started {
		n.lineLocked(v)
		n.writeLocked()
	}
}

// lineLocked buffers v as one line; a value encoding/json refuses is
// dropped.
func (n *NDJSON) lineLocked(v any) {
	if line, err := json.Marshal(v); err == nil {
		n.buf = append(append(n.buf, line...), '\n')
	}
}

func (n *NDJSON) writeLocked() {
	if len(n.buf) > 0 {
		_, _ = n.w.Write(n.buf)
		n.buf = n.buf[:0]
	}
}

func (n *NDJSON) flushLocked() {
	if n.flusher != nil {
		n.flusher.Flush()
	}
}
