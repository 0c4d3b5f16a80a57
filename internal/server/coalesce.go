package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

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
	// the batch for everyone else. With parallel consume the delivery path
	// runs on several goroutines, so the error latches behind a mutex.
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
// scans. The first query to arrive opens a coalescing window; everything
// that lands before the window closes (or the batch fills) is dispatched
// as one RunShared call — one physical scan serving the whole batch.
type batcher struct {
	srv    *Server
	op     *scanraw.Operator
	window time.Duration

	mu       sync.Mutex
	queue    []*pending
	windowed bool // a window goroutine is pending for the current queue
}

// submit enqueues a query and arranges for its batch to be dispatched.
//
// Demand-aware admission: a query with no termination profile joining a
// window whose members all carry one would force the shared scan to
// end-of-file — un-terminating a batch that could stop early (and, had the
// batch already been draining, resurrecting chunk deliveries its members
// no longer want). Such a newcomer dispatches alone instead of coalescing.
func (b *batcher) submit(p *pending) {
	if p.m.Order != nil || p.m.Range != nil {
		go b.execute([]*pending{p})
		return
	}
	b.mu.Lock()
	if len(b.queue) > 0 && !scanraw.HasTerminationProfile(p.m.Query) && allTerminating(b.queue) {
		b.mu.Unlock()
		go b.execute([]*pending{p})
		return
	}
	b.queue = append(b.queue, p)
	if len(b.queue) >= maxBatch {
		batch := b.queue
		b.queue = nil
		b.windowed = false
		b.mu.Unlock()
		go b.execute(batch)
		return
	}
	opened := !b.windowed
	if opened {
		b.windowed = true
	}
	b.mu.Unlock()
	if !opened {
		return // an open window will pick this query up
	}
	go func() {
		if b.window > 0 {
			time.Sleep(b.window)
		}
		b.mu.Lock()
		batch := b.queue
		b.queue = nil
		b.windowed = false
		b.mu.Unlock()
		if len(batch) > 0 {
			b.execute(batch)
		}
	}()
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
// member's result. Batches for the same operator serialize on the
// operator's run mutex; batches for different files run concurrently.
func (b *batcher) execute(batch []*pending) {
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
}
