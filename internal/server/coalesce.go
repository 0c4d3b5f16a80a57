package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
)

// pending is one admitted query waiting to be served by a scan: the
// scanraw.Member the batch builds its request from, plus where the outcome
// goes. The handler picks the consumer and the hooks by reply mode and
// finalizes the consumer itself once the scan is done.
type pending struct {
	ctx context.Context
	// m is the query's entry into a scan. A Range (an /exec shard) or an
	// Order (online aggregation) dispatches it solo: a sample order cannot
	// be shared, and a shard is already one of a scatter whose peers wait
	// for each other. Done is the consumer's own completeness signal
	// (stream LIMIT met, estimate converged); request adds liveness to it
	// and owns OnError.
	m scanraw.Member

	result chan pendingResult // buffered(1): the batch never blocks on it

	// consumeErr records this query's own execution error without failing
	// the batch for everyone else. The scan's driver polls it through Done
	// from another goroutine, so the error latches behind a mutex.
	errMu      sync.Mutex
	consumeErr error
}

func (p *pending) setConsumeErr(err error) {
	p.errMu.Lock()
	if p.consumeErr == nil {
		p.consumeErr = err
	}
	p.errMu.Unlock()
}

func (p *pending) consumeError() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.consumeErr
}

// request is the member's scan request. Its Done folds the consumer's
// completeness with liveness: a dead or failed member wants no more chunks
// either, so a shared scan whose every member is satisfied or gone stops
// before end-of-file. Its error sink keeps a member's failure to itself.
func (p *pending) request() scanraw.Request {
	m := p.m
	m.Done = func() bool {
		return p.ctx.Err() != nil || p.consumeError() != nil || (p.m.Done != nil && p.m.Done())
	}
	m.OnError = p.setConsumeErr
	return m.Request(p.ctx)
}

// pendingResult is what the batch deposits for each member query.
type pendingResult struct {
	scan      scanraw.RunStats
	shared    scanraw.SharedStats
	batchSize int
	err       error
}

// batcher coalesces concurrent queries against one raw file into shared
// scans by natural batching. While there is work, one drain goroutine
// dispatches it: a query that finds the batcher idle starts the drain and
// is dispatched at once, and queries that arrive while a batch scans queue
// up and go together, as one RunSharedContext call — one physical scan — when
// that scan ends. Only a scan that converts raw data waits for companions:
// a query that finds the batcher idle with a column it needs missing from
// the database in some chunk (or the chunk boundaries not yet known)
// lingers for window first, so concurrent cold queries share one
// conversion instead of queueing for the second.
type batcher struct {
	srv    *Server
	op     *scanraw.Operator
	window time.Duration

	mu      sync.Mutex
	queue   []*pending
	running bool          // a drain goroutine owns the queue
	cut     chan struct{} // non-nil while the drain lingers; closed when the queue fills
}

// submit enqueues a query and makes sure a drain will dispatch it.
//
// Demand-aware admission: a query with no termination profile joining a
// queue whose members all carry one would force the shared scan to
// end-of-file — un-terminating a batch that could stop early (and, had the
// batch already been draining, resurrecting chunk deliveries its members
// no longer want). Such a newcomer dispatches alone instead of coalescing.
func (b *batcher) submit(p *pending) {
	if p.m.Order != nil || p.m.Range != nil {
		go b.execute([]*pending{p}, nil)
		return
	}
	b.mu.Lock()
	if len(b.queue) > 0 && !scanraw.HasTerminationProfile(p.m.Query) && allTerminating(b.queue) {
		b.mu.Unlock()
		go b.execute([]*pending{p}, nil)
		return
	}
	b.queue = append(b.queue, p)
	if len(b.queue) >= maxBatch && b.cut != nil {
		close(b.cut)
		b.cut = nil
	}
	idle := !b.running
	b.running = true
	b.mu.Unlock()
	if idle {
		go b.drain(p.m.Query)
	}
}

// drain dispatches the queue, one batch at a time, until it finds the
// queue empty. first is the query that found the batcher idle: if its scan
// must convert, the first batch lingers.
func (b *batcher) drain(first *engine.Query) {
	if b.window > 0 && b.mustConvert(first) {
		b.linger()
	}
	for batch := b.take(); batch != nil; {
		batch = b.execute(batch, b.take)
	}
}

// take removes the next batch, at most maxBatch queries, from the queue.
// With the queue empty it marks the batcher idle and returns nil.
func (b *batcher) take() []*pending {
	b.mu.Lock()
	defer b.mu.Unlock()
	batch := b.queue
	if len(batch) > maxBatch {
		batch, b.queue = batch[:maxBatch:maxBatch], batch[maxBatch:]
	} else {
		b.queue = nil
	}
	if len(batch) == 0 {
		b.running = false
		return nil
	}
	return batch
}

// linger waits out the coalescing window, or less if the queue fills.
func (b *batcher) linger() {
	b.mu.Lock()
	if len(b.queue) >= maxBatch {
		b.mu.Unlock()
		return
	}
	cut := make(chan struct{})
	b.cut = cut
	b.mu.Unlock()
	timer := time.NewTimer(b.window)
	select {
	case <-timer.C:
	case <-cut:
	}
	timer.Stop()
	b.mu.Lock()
	b.cut = nil
	b.mu.Unlock()
}

// mustConvert reports whether a scan for q would convert raw data: the
// table's chunk boundaries are not all known yet, or some chunk lacks one
// of q's columns in the database.
func (b *batcher) mustConvert(q *engine.Query) bool {
	t := b.op.Table()
	return !t.Complete() || t.CountLoaded(scanraw.ScanColumns(q)) != t.NumChunks()
}

// allTerminating reports whether every queued query carries a whole-scan
// termination signal (streamed LIMIT without ORDER BY).
func allTerminating(queue []*pending) bool {
	for _, p := range queue {
		if !scanraw.HasTerminationProfile(p.m.Query) {
			return false
		}
	}
	return true
}

// execute runs one batch through the shared-scan path and deposits each
// member's result. The drain runs its batches one after another; they and
// the solo dispatches serialize on the operator's run mutex, while batches
// for different files run concurrently.
//
// For the drain, next takes the batch that follows (nil for a solo
// dispatch), and execute returns it. It is taken when the scan has ended
// but before any member has its result: the queries that arrived during
// the scan form it, and a query sent only after a reply — a client's next
// query — finds the batcher idle, so it lingers like any other cold query
// at an idle table.
func (b *batcher) execute(batch []*pending, next func() []*pending) []*pending {
	// The scan context cancels only when every member has gone away —
	// one client disconnecting must not kill the scan for the others.
	scanCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	execDone := make(chan struct{})
	defer close(execDone)
	var live atomic.Int64
	live.Store(int64(len(batch)))
	for _, p := range batch {
		go func(p *pending) {
			select {
			case <-p.ctx.Done():
				if live.Add(-1) == 0 {
					cancel()
				}
			case <-execDone:
			}
		}(p)
	}

	reqs := make([]scanraw.Request, len(batch))
	for i, p := range batch {
		reqs[i] = p.request()
	}

	st, per, err := b.op.RunSharedContext(scanCtx, reqs)
	b.srv.recordScan(st, len(batch))
	var following []*pending
	if next != nil {
		following = next()
	}

	for i, p := range batch {
		pr := pendingResult{scan: st, batchSize: len(batch)}
		if per != nil {
			pr.shared = per[i]
		}
		switch {
		case p.ctx.Err() != nil:
			pr.err = p.ctx.Err()
		case p.consumeError() != nil:
			pr.err = p.consumeError()
		default:
			pr.err = err
		}
		p.result <- pr
	}
	return following
}
