package scanraw

import (
	"sync"
	"time"
)

// deliverer is the CONSUME stage of a run: it feeds delivered binary chunks
// to the request's Deliver callback, pacing the consume time through
// cpuWork so engine evaluation occupies simulated CPU exactly like the
// conversion stages do.
//
// With one worker the deliverer is a synchronous pass-through preserving
// the classic contract (Deliver called from a single goroutine, in delivery
// order). With n > 1 workers it fans chunks out to n consume goroutines —
// the parallel delivery mode that removes the serial-consume Amdahl ceiling
// — and Deliver must tolerate concurrent calls (engine.Executor does). The
// hand-off channel is unbuffered: when every worker is busy the producer
// blocks, so the binary-buffer budget (freeBin) keeps bounding memory and
// back-pressure still propagates to READ.
type deliverer struct {
	o  *Operator
	fn func(bc *BinaryChunk) error
	n  int

	ch chan deliverItem // nil when n == 1
	wg sync.WaitGroup

	errMu sync.Mutex
	err   error

	slot *workerSlot // pacing slot of the synchronous (n == 1) path
}

// deliverItem pairs a chunk with the bookkeeping to run once its consume
// finished (cache unpin, budget release, scheduler pokes). The bookkeeping
// runs whether or not the chunk was actually consumed, so teardown
// invariants hold on the error path too.
type deliverItem struct {
	bc    *BinaryChunk
	after func()
}

// newDeliverer builds the consume stage for one run; n is clamped to >= 1.
func (o *Operator) newDeliverer(fn func(bc *BinaryChunk) error, n int) *deliverer {
	if n < 1 {
		n = 1
	}
	d := &deliverer{o: o, fn: fn, n: n, slot: &workerSlot{}}
	if n > 1 {
		d.ch = make(chan deliverItem)
		d.wg.Add(n)
		for i := 0; i < n; i++ {
			go d.worker()
		}
	}
	return d
}

func (d *deliverer) setErr(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// failedErr returns the first consume error (or the run failure that was
// propagated in), nil while healthy.
func (d *deliverer) failedErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// deliver hands one chunk to the consume stage. Synchronous mode consumes
// inline; fan-out mode enqueues to a worker and returns once one accepts
// (back-pressure, not completion). after, when non-nil, runs exactly once
// after the consume attempt. Errors are not returned here — they latch in
// the deliverer (and the caller's run, via failedErr checks) because in
// fan-out mode the failure may belong to an earlier chunk.
func (d *deliverer) deliver(bc *BinaryChunk, after func()) {
	if d.ch != nil {
		// Time spent blocked here is the consume-stall signal: the producer
		// had a chunk ready but every consume worker was busy.
		select {
		case d.ch <- deliverItem{bc: bc, after: after}:
		default:
			start := time.Now()
			d.ch <- deliverItem{bc: bc, after: after}
			d.o.prof.consumeStallNs.Add(int64(time.Since(start)))
		}
		d.o.prof.consumeStallCh.Add(1)
		return
	}
	if d.failedErr() == nil {
		d.consumeOne(d.slot, bc)
	}
	if after != nil {
		after()
	}
}

// worker is one consume goroutine of the fan-out mode, with its own pacing
// slot so CPUSlowdown debt accumulates per worker like conversion workers.
func (d *deliverer) worker() {
	defer d.wg.Done()
	slot := &workerSlot{}
	for it := range d.ch {
		if d.failedErr() == nil {
			d.consumeOne(slot, it.bc)
		}
		if it.after != nil {
			it.after()
		}
	}
}

// consumeOne runs the Deliver callback for one chunk under cpuWork pacing
// and accounts the nominal time to the Consume stage profile.
func (d *deliverer) consumeOne(slot *workerSlot, bc *BinaryChunk) {
	var err error
	t := d.o.cpuWork(slot, func() { err = d.fn(bc) })
	d.o.prof.consumeNs.Add(int64(t))
	if err != nil {
		d.setErr(err)
		return
	}
	d.o.prof.consumeChunks.Add(1)
}

// close waits for in-flight consumes and returns the first error. Every
// deliver call must have returned before close.
func (d *deliverer) close() error {
	if d.ch != nil {
		close(d.ch)
		d.wg.Wait()
	}
	return d.failedErr()
}
