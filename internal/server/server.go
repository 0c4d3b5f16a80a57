// Package server exposes the SCANRAW engine as a long-running concurrent
// query service — the operator-inside-a-running-database deployment the
// paper assumes (§4, Fig. 8), turned into a daemon that serves a stream
// of queries from many clients at once.
//
// The serving path is built around two mechanisms:
//
//   - Admission control: a bounded slot semaphore caps the number of
//     in-flight queries. When every slot is taken, new queries are shed
//     immediately with 429 Too Many Requests instead of queueing without
//     bound and collapsing the service.
//   - Scan coalescing: admitted queries against the same raw file that
//     arrive while a scan of it runs queue and leave together, as the next
//     batch, through the operator's shared-scan path (RunSharedContext), so
//     one physical scan — one read/tokenize/parse of every chunk — serves N
//     clients. A query at an idle table starts at once, unless its scan
//     must convert raw data: then it waits a short coalescing window for
//     companions to share the conversion.
//
// Per-query contexts (client disconnects, timeouts) propagate into the
// operator pipeline: a query whose client has gone away stops receiving
// chunks, and once every member of a shared scan is gone the scan itself
// is cancelled and the disk released.
//
// Endpoints: POST /query (JSON result, or NDJSON rows with ?stream=ndjson),
// GET /metrics (live utilization + serving counters), GET /tables (catalog
// and loading progress).
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/metrics"
	"scanraw/internal/ola"
	"scanraw/internal/queryapi"
	"scanraw/internal/scanraw"
	"scanraw/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrent is the number of admission slots — queries in flight
	// at once, across all tables. Arrivals beyond it get 429. Default 32.
	MaxConcurrent int
	// CoalesceWindow is how long a query that finds its table's batcher
	// idle waits for companions when its scan must convert raw data (a
	// column it needs is not loaded in every chunk, or the chunk boundaries
	// are not all known yet); queries landing within the window share that
	// conversion. A query whose columns are all loaded is dispatched at
	// once, and queries that arrive while a scan runs always form the next
	// batch without waiting. Default 2ms; negative never waits.
	CoalesceWindow time.Duration
	// DefaultTimeout bounds queries that do not carry their own timeout.
	// Zero means no server-imposed limit.
	DefaultTimeout time.Duration
	// OLAError, when positive, makes online aggregation the default for
	// eligible aggregate queries: they run as sampled scans that stop once
	// the relative confidence bound reaches this tolerance. Individual
	// queries override it with ?error= (0 forces an exact sampled scan).
	OLAError float64
	// OLAConfidence is the confidence level of OLA bounds when a query
	// does not pass ?confidence=. Zero means 0.95.
	OLAConfidence float64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	switch {
	case c.CoalesceWindow < 0:
		c.CoalesceWindow = 0
	case c.CoalesceWindow == 0:
		c.CoalesceWindow = 2 * time.Millisecond
	}
	return c
}

// maxBatch caps how many queries one shared scan serves; a full batch
// dispatches immediately without waiting out the coalescing window.
const maxBatch = 64

// tableEntry is one servable table: its catalog entry, the operator
// configuration its operator is created with, the workload tracker that
// turns the query stream into per-column access weights for payoff-ranked
// speculation, and — from the table's first query on — its coalescing
// batcher, which owns the table's operator.
type tableEntry struct {
	table   *dbstore.Table
	cfg     scanraw.Config
	tracker *workload.Tracker
	// accesses counts tracker recordings; every workloadFlushEvery-th one
	// persists the decayed weights through the catalog journal so a restart
	// resumes speculation with a warm profile.
	accesses atomic.Int64
	// batch is nil until the first query creates it, under Server.mu.
	batch atomic.Pointer[batcher]
}

// workloadFlushEvery is how many recorded accesses pass between workload
// persistence points. Flushing every query would put a journal append on
// the serving hot path; one in sixteen keeps the persisted profile close
// to live while amortizing the write.
const workloadFlushEvery = 16

// Server is the query-serving subsystem: it serves SQL against registered
// tables of a store, one operator per table.
type Server struct {
	cfg   Config
	store *dbstore.Store
	slots chan struct{}
	meter *metrics.Meter
	start time.Time

	mu     sync.RWMutex
	tables map[string]*tableEntry

	// draining flips at Drain entry; /healthz reports it (503) so a
	// coordinator stops routing new shards here, and /exec sheds
	// immediately instead of racing the slot takeover.
	draining atomic.Bool

	met counters
}

// New creates a server over a store. Tables become servable via AddTable.
func New(store *dbstore.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		store:  store,
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		start:  time.Now(),
		tables: make(map[string]*tableEntry),
	}
	s.meter = metrics.NewMeter(store.Disk(), s.workerBusyTotal)
	return s
}

// Operator returns the named table's operator, which exists once the table
// has served its first query.
func (s *Server) Operator(table string) (*scanraw.Operator, bool) {
	s.mu.RLock()
	e, ok := s.tables[table]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if b := e.batch.Load(); b != nil {
		return b.op, true
	}
	return nil, false
}

// operators returns the live operators, one per table that has served a
// query.
func (s *Server) operators() []*scanraw.Operator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ops := make([]*scanraw.Operator, 0, len(s.tables))
	for _, e := range s.tables {
		if b := e.batch.Load(); b != nil {
			ops = append(ops, b.op)
		}
	}
	return ops
}

// Drain quiesces the server for shutdown: it claims every admission slot
// (blocking until in-flight queries finish, while new arrivals are shed with
// 429), waits out each operator's background writes and commits its open
// batch (Operator.WaitIdle) so every speculative write is durable before the
// checkpoint, and compacts the catalog journal into a checkpoint. The
// slots are never released — a drained server stays drained. ctx bounds the
// wait; on expiry the checkpoint still runs so whatever has finished is
// compacted, and the context error is returned.
func (s *Server) Drain(ctx context.Context) error {
	// Flip readiness first: new /exec shards and health probes see the
	// drain before the slot takeover starts, so a coordinator routes
	// around this worker instead of racing its shutdown.
	s.draining.Store(true)
	var ctxErr error
slots:
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break slots
		}
	}
	for _, op := range s.operators() {
		op.WaitIdle()
	}
	s.mu.RLock()
	entries := make([]*tableEntry, 0, len(s.tables))
	for _, e := range s.tables {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	for _, e := range entries {
		// Flush the final workload profile so the checkpoint below folds it
		// in — the next process starts speculating where this one left off.
		if e.accesses.Load() > 0 {
			_ = s.store.SetWorkload(e.table.Name(), e.tracker.Weights())
		}
	}
	if err := s.store.Checkpoint(); err != nil {
		return err
	}
	return ctxErr
}

// AddTable registers a table for serving with the given operator
// configuration. The server attaches a workload tracker and wires its
// weights into the operator config here — the operator is created once, on
// the first query, so the config must be final before it is stored.
func (s *Server) AddTable(t *dbstore.Table, opCfg scanraw.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[t.Name()]; dup {
		return fmt.Errorf("server: table %q already registered", t.Name())
	}
	tr := workload.New(t.Schema().NumColumns(), 0)
	if w := s.store.Workload(t.Name()); w != nil {
		// Warm start: resume from the profile persisted before the last
		// shutdown instead of falling back to scan-order speculation.
		tr.Seed(w)
	}
	opCfg.ColumnWeights = tr.Weights
	s.tables[t.Name()] = &tableEntry{table: t, cfg: opCfg, tracker: tr}
	return nil
}

// recordAccess folds one query's required columns into the table's workload
// profile, periodically persisting the decayed weights through the journal.
func (s *Server) recordAccess(e *tableEntry, cols []int) {
	e.tracker.Record(cols)
	if e.accesses.Add(1)%workloadFlushEvery == 0 {
		// Persistence is best-effort: a failed journal append costs a warm
		// profile on the next restart, never the query.
		_ = s.store.SetWorkload(e.table.Name(), e.tracker.Weights())
	}
}

// workerBusyTotal sums cumulative worker-busy time across the live
// operators — the CPU source for the meter.
func (s *Server) workerBusyTotal() time.Duration {
	var total time.Duration
	for _, op := range s.operators() {
		total += op.CPU().Total()
	}
	return total
}

// batcherFor returns the coalescing batcher for a table, creating it on
// first use (which also creates the table's operator).
func (s *Server) batcherFor(e *tableEntry) *batcher {
	if b := e.batch.Load(); b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := e.batch.Load(); b != nil {
		return b
	}
	b := &batcher{srv: s, op: scanraw.New(s.store, e.table, e.cfg), window: s.cfg.CoalesceWindow}
	e.batch.Store(b)
	return b
}

// Handler returns the HTTP handler serving /query, /metrics and /tables.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /tables", s.handleTables)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once draining — the signal a coordinator uses to skip this worker.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		queryapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	queryapi.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// olaRequest is the resolved online-aggregation decision for one query:
// whether the sampled path runs, with what tolerance, confidence, and
// permutation seed.
type olaRequest struct {
	active bool
	cfg    ola.Config
	seed   int64
}

// olaParams resolves the OLA query parameters against the server defaults.
// ?error= activates online aggregation for this query (0 keeps the sampled
// scan but forbids early termination — the answer is exact); a positive
// Config.OLAError activates it by default for every eligible aggregate.
// An explicitly requested ?error= on an ineligible query is the client's
// mistake and errors out; a server default on an ineligible query silently
// takes the plain path.
func (s *Server) olaParams(r *http.Request, q *engine.Query) (olaRequest, error) {
	qs := r.URL.Query()
	out := olaRequest{seed: 1}
	tol := s.cfg.OLAError
	explicit := false
	if es := qs.Get("error"); es != "" {
		v, err := strconv.ParseFloat(es, 64)
		if err != nil || math.IsNaN(v) || v < 0 {
			return out, fmt.Errorf("bad error parameter %q: want a fraction >= 0", es)
		}
		tol, explicit = v, true
	}
	if !explicit && s.cfg.OLAError <= 0 {
		return out, nil
	}
	conf := s.cfg.OLAConfidence
	if cs := qs.Get("confidence"); cs != "" {
		v, err := strconv.ParseFloat(cs, 64)
		if err != nil || !(v > 0 && v < 1) {
			return out, fmt.Errorf("bad confidence parameter %q: want 0 < c < 1", cs)
		}
		conf = v
	}
	if conf == 0 {
		conf = ola.DefaultConfidence
	}
	if ss := qs.Get("seed"); ss != "" {
		v, err := strconv.ParseInt(ss, 10, 64)
		if err != nil {
			return out, fmt.Errorf("bad seed parameter %q", ss)
		}
		out.seed = v
	}
	if err := ola.Eligible(q); err != nil {
		if explicit {
			return out, fmt.Errorf("online aggregation: %v", err)
		}
		return olaRequest{}, nil
	}
	out.active = true
	out.cfg = ola.Config{Confidence: conf, Tolerance: tol}
	return out, nil
}

// bind is the first half of the prologue /query and /exec share: it finds
// the statement's table and binds the query against its schema, replying
// 4xx itself when it cannot.
func (s *Server) bind(w http.ResponseWriter, sql string) (*tableEntry, *engine.Query, bool) {
	if strings.TrimSpace(sql) == "" {
		queryapi.WriteError(w, http.StatusBadRequest, "empty sql")
		return nil, nil, false
	}
	from, err := engine.FromTable(sql)
	if err != nil {
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	s.mu.RLock()
	entry, ok := s.tables[from]
	s.mu.RUnlock()
	if !ok {
		queryapi.WriteError(w, http.StatusNotFound, "unknown table %q", from)
		return nil, nil, false
	}
	q, err := engine.ParseSQL(sql, entry.table.Schema())
	if err != nil {
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	return entry, q, true
}

// admit is the second half: take an admission slot or shed the query now —
// a 429 is cheap for the client to retry, an unbounded queue is not — then
// count it and bound it by its timeout. release frees the timer and the
// slot.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, e *tableEntry, q *engine.Query, timeoutMS int64) (ctx context.Context, release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
	default:
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		queryapi.WriteError(w, http.StatusTooManyRequests, "server at capacity (%d queries in flight)", s.cfg.MaxConcurrent)
		return nil, nil, false
	}
	s.met.queries.Add(1)
	s.met.policyCount(e.cfg.Policy)
	s.recordAccess(e, q.RequiredColumns())
	ctx, cancel := queryapi.WithTimeout(r.Context(), timeoutMS, s.cfg.DefaultTimeout)
	return ctx, func() { cancel(); <-s.slots }, true
}

// run dispatches an admitted query and waits for its scan — or for its
// context to end first: the batch will still deposit a result (the channel
// is buffered), but the client is gone or out of time.
func (s *Server) run(e *tableEntry, p *pending) pendingResult {
	s.batcherFor(e).submit(p)
	select {
	case pr := <-p.result:
		return pr
	case <-p.ctx.Done():
		return pendingResult{err: p.ctx.Err()}
	}
}

// fail accounts a failed query and reports it: through inBand once the
// reply has started (the HTTP status is long gone), as a status otherwise.
// A query cut short by its own context is a timeout or a cancellation,
// never a failure.
func (s *Server) fail(w http.ResponseWriter, ctx context.Context, err error, inBand func(err error, cancelled bool)) {
	cancelled := ctx.Err() != nil && errors.Is(err, ctx.Err())
	if cancelled {
		s.accountCancelled(err)
	} else {
		s.met.failed.Add(1)
	}
	switch {
	case inBand != nil:
		inBand(err, cancelled)
	case cancelled:
		queryapi.WriteContextError(w, err)
	default:
		queryapi.WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// accountCancelled records a query cut short by its context in the
// serving counters.
func (s *Server) accountCancelled(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.timedOut.Add(1)
		return
	}
	s.met.cancelled.Add(1)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qr queryapi.Request
	if !queryapi.DecodeBody(w, r, &qr) {
		return
	}
	entry, q, ok := s.bind(w, qr.SQL)
	if !ok {
		return
	}
	olaReq, err := s.olaParams(r, q)
	if err != nil {
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Consumer selection. Online-aggregation queries get a sampled-scan
	// runner (streamed as converging estimates under NDJSON); non-aggregate
	// queries without ORDER BY asked for as NDJSON stream in chunk order as
	// the scan delivers; everything else materializes through the engine
	// executor — an NDJSON ORDER BY reply writes the result's rows after the
	// scan, behind a header sent before it. finish turns the fed consumer
	// into the result; a stream has written its rows by then and returns
	// only the columns.
	sch, cols := entry.table.Schema(), q.ColumnNames()
	var nd *queryapi.NDJSON
	if r.URL.Query().Get("stream") == "ndjson" {
		nd = queryapi.NewNDJSON(w)
	}
	p := &pending{m: scanraw.Member{Query: q}, result: make(chan pendingResult, 1)}
	var (
		olaRunner *ola.Runner
		finish    func() (*engine.Result, error)
	)
	switch {
	case olaReq.active && nd != nil:
		var os *olaStreamer
		if os, err = newOLAStreamer(q, sch, olaReq.cfg, nd); err == nil {
			olaRunner, finish = os.runner, os.finish
		}
	case olaReq.active:
		if olaRunner, err = ola.NewRunner(q, sch, olaReq.cfg, nil); err == nil {
			finish = olaRunner.Result
		}
	case nd != nil && !q.IsAggregate() && len(q.OrderBy) == 0:
		var e *rowEmitter[*lineBatch]
		e, err = newRowEmitter(q, sch, 0, ndjsonSink{nd})
		if err == nil {
			p.m.Consumer, p.m.OnSkip, p.m.Done = e, e.markSkipped, e.satisfied
			finish = func() (*engine.Result, error) {
				e.flush()
				return &engine.Result{Cols: cols}, nil
			}
		}
	default:
		var ex *engine.Executor
		if ex, err = engine.NewExecutor(q, sch); err == nil {
			p.m.Consumer, finish = ex, ex.Result
		}
	}
	if err != nil {
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if olaRunner != nil {
		p.m.Consumer, p.m.Order, p.m.Done = olaRunner, olaRunner.Order(olaReq.seed), olaRunner.Satisfied
	}

	ctx, release, ok := s.admit(w, r, entry, q, qr.TimeoutMS)
	if !ok {
		return
	}
	defer release()
	if olaReq.active {
		s.met.olaQueries.Add(1)
	}
	p.ctx = ctx

	start := time.Now()
	var inBand func(err error, cancelled bool)
	if nd != nil && (olaRunner != nil || !q.IsAggregate()) {
		// Rows or estimates reach the client during the scan, so the
		// columns header (and the 200) must go out before it starts. From
		// here on errors are in-band NDJSON lines.
		nd.Header(cols)
		inBand = func(err error, cancelled bool) {
			if cancelled {
				err = fmt.Errorf("query cancelled: %v", err)
			}
			nd.Error(err)
		}
	}
	pr := s.run(entry, p)
	var res *engine.Result
	if pr.err == nil {
		res, pr.err = finish()
	}
	if pr.err != nil {
		s.fail(w, ctx, pr.err, inBand)
		return
	}

	st := queryapi.ScanStats(start, pr.scan.ScanReport, pr.shared)
	st.BatchSize, st.Policy = pr.batchSize, entry.cfg.Policy.String()
	if olaRunner != nil {
		last := olaRunner.LastSnapshot()
		exact := olaRunner.Exact()
		maxRel := last.MaxRel
		switch {
		case exact:
			maxRel = 0
		case math.IsNaN(maxRel) || math.IsInf(maxRel, 0):
			maxRel = -1 // no bound formed yet
		}
		st.OLA = &queryapi.OLAStats{
			ChunksSampled: last.Chunks,
			ChunksTotal:   last.Total,
			MaxRelError:   maxRel,
			Converged:     olaRunner.Satisfied(),
			Exact:         exact,
			Tolerance:     olaReq.cfg.Tolerance,
			Confidence:    olaReq.cfg.Confidence,
			Seed:          olaReq.seed,
		}
		s.met.olaChunksSampled.Add(int64(last.Chunks))
		if pr.scan.TerminatedEarly {
			s.met.olaEarlyTerminations.Add(1)
		}
	}
	if nd == nil {
		queryapi.WriteResult(w, res.Cols, res.Rows, st)
		return
	}
	if inBand == nil {
		// Aggregate results cannot stream incrementally (they only exist
		// after the final fold); stream the materialized rows.
		nd.Header(res.Cols)
	}
	nd.Rows(res.Rows...)
	nd.Stats(st)
}

// TableStatus is one GET /tables entry: catalog identity plus loading
// progress.
type TableStatus struct {
	Name         string         `json:"name"`
	Columns      []ColumnStatus `json:"columns"`
	RawFile      string         `json:"raw_file"`
	Chunks       int            `json:"chunks"`
	LoadedChunks int            `json:"loaded_chunks"` // chunks with every column in the database
	Complete     bool           `json:"complete"`      // all chunk boundaries known
	FullyLoaded  bool           `json:"fully_loaded"`
	LiveOperator bool           `json:"live_operator"`
	Policy       string         `json:"policy"`
}

// ColumnStatus is one schema column of a served table.
type ColumnStatus struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*tableEntry, 0, len(s.tables))
	for _, e := range s.tables {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make([]TableStatus, 0, len(entries))
	for _, e := range entries {
		t := e.table
		sch := t.Schema()
		cols := make([]ColumnStatus, sch.NumColumns())
		all := make([]int, sch.NumColumns())
		for i := range cols {
			c := sch.Column(i)
			cols[i] = ColumnStatus{Name: c.Name, Type: c.Type.String()}
			all[i] = i
		}
		out = append(out, TableStatus{
			Name:         t.Name(),
			Columns:      cols,
			RawFile:      t.RawFile(),
			Chunks:       t.NumChunks(),
			LoadedChunks: t.CountLoaded(all),
			Complete:     t.Complete(),
			FullyLoaded:  t.FullyLoaded(),
			LiveOperator: e.batch.Load() != nil,
			Policy:       e.cfg.Policy.String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	queryapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queryapi.WriteJSON(w, http.StatusOK, s.MetricsSnapshot())
}
