package scanraw

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/kernel"
)

// run holds the per-query state: the scan driver's bookkeeping, the consume
// stage, and — for a pooled run — the pipeline's buffers (bounded channels
// with slot semaphores) and worker pool.
type run struct {
	op  *Operator
	req Request
	out emitter // inline, until a pooled run starts its pipeline

	// consumeSlot paces the CONSUME stage: Deliver runs on the goroutine that
	// called Run, one chunk at a time, so one slot carries its CPUSlowdown debt.
	consumeSlot workerSlot

	// kern is the conversion kernel — one fused pass per chunk, accounted to
	// the Parse stage — for the full-conversion column set: the requested
	// columns.
	kern *kernel.Kernel

	// Driver state, touched only by the goroutine running drive: the raw
	// file scanner, whether the disk-backed part of the visit sequence has
	// begun, the chunks the cached-first prefix already accounted for, and
	// the kernels of partial-width plans by convert-set key.
	sc        *rawScanner
	disk      bool
	delivered map[int]bool
	kerns     map[string]*kernel.Kernel

	done    chan struct{} // closed on first error
	errOnce sync.Once
	runErr  error

	textBuf   chan task     // the text chunks buffer: fetched tasks awaiting a worker
	freeBin   chan struct{} // undelivered-chunk budget of the binary cache
	deliverCh chan *BinaryChunk

	// workers is the worker-pool semaphore. An inline run has exactly one
	// slot — the calling goroutine's implicit worker.
	workers chan *workerSlot

	// specNotify wakes a driver blocked on a full text buffer to spend idle
	// quanta: the cache gained a chunk or a delivery freed one. Nil unless a
	// pooled run speculates.
	specNotify chan struct{}

	convWG sync.WaitGroup

	gate *cacheGate // wakes cache-insert waiters when pins release

	// Demand-driven termination: satisfied latches once the request's
	// Satisfied signal fires; satCh (when non-nil) is closed at the same
	// moment so blocked producers wake instead of waiting for the drain.
	satisfied atomic.Bool
	satOnce   sync.Once
	satCh     chan struct{}

	// Slow start (demand-driven runs only). Nothing stands between the text
	// buffer and the worker pool, so every worker would commit to a full
	// conversion before the first delivery can reveal the demand is already
	// satisfied — for a LIMIT, a pool's worth of work stranded in flight.
	// Until a consumed delivery proves more chunks are needed (rampOpen
	// closes), admission is capped at the rampSlots window.
	rampSlots chan struct{}
	rampOpen  chan struct{}
	rampOnce  sync.Once

	afterConvert atomic.Int64 // after-convert writes this run may still do

	written     atomic.Int64 // chunks this run loaded into the database
	groupWrites atomic.Int64 // columns written by payoff quanta
	// bySource counts the chunks delivered from each source, and the skipped.
	bySource [numSources]atomic.Int64

	// Invariants builds only: chunks of the disk-backed sequence issued by
	// the driver and those whose consume finished, for the in-flight bound
	// (see walk).
	issued   int64
	consumed atomic.Int64

	blocked blockedTimer // READ time lost to a full text buffer
}

// cacheGate is the condition variable cache-insert waiters block on while
// every cache slot is pinned; every pin release broadcasts it.
type cacheGate struct {
	mu   sync.Mutex
	cond *sync.Cond
}

func newCacheGate() *cacheGate {
	g := &cacheGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *cacheGate) broadcast() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (r *run) fail(err error) {
	if err == nil {
		return
	}
	r.errOnce.Do(func() {
		r.runErr = err
		close(r.done)
		r.gate.broadcast()
	})
}

// rampWindow caps how many conversions run concurrently before the
// first consumed delivery shows the demand wants more than one chunk.
// Two keeps a successor warm behind the chunk whose consume answers the
// question, without committing the whole worker pool to speculation.
const rampWindow = 2

// openRamp lifts the slow-start cap: a delivery was consumed and the
// demand is still unsatisfied, so speculating with every worker is justified.
func (r *run) openRamp() {
	if r.rampOpen == nil {
		return
	}
	r.rampOnce.Do(func() { close(r.rampOpen) })
}

// demandSatisfied polls the request's Satisfied signal, latching the result
// and closing satCh on the first true so the pipeline stops issuing chunks.
func (r *run) demandSatisfied() bool {
	if r.satisfied.Load() {
		return true
	}
	if r.req.Satisfied != nil && r.req.Satisfied() {
		r.satisfied.Store(true)
		r.satOnce.Do(func() {
			if r.satCh != nil {
				close(r.satCh)
			}
		})
		return true
	}
	return false
}

func (r *run) failed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

func (r *run) poke() {
	select {
	case r.specNotify <- struct{}{}:
	default:
	}
}

// runWrite loads one chunk at full width — fresh from conversion, or just
// evicted — and accounts it to this run once its commit has returned.
func (r *run) runWrite(bc *BinaryChunk) error {
	_, err := r.op.write(bc, nil, &r.written, 1)
	return err
}

func validateRequest(req Request, ncols int) error {
	if req.Deliver == nil {
		return fmt.Errorf("scanraw: request needs a Deliver callback")
	}
	if len(req.Columns) == 0 {
		return fmt.Errorf("scanraw: request selects no columns")
	}
	for i, c := range req.Columns {
		if c < 0 || c >= ncols {
			return fmt.Errorf("scanraw: column ordinal %d out of range [0,%d)", c, ncols)
		}
		if i > 0 && req.Columns[i-1] >= c {
			return fmt.Errorf("scanraw: request columns must be sorted ascending, each ordinal once")
		}
	}
	if req.Range != nil {
		if req.Range.Lo < 0 {
			return fmt.Errorf("scanraw: chunk range lower bound %d is negative", req.Range.Lo)
		}
		if req.Range.Hi > 0 && req.Range.Hi <= req.Range.Lo {
			return fmt.Errorf("scanraw: chunk range [%d,%d) is empty", req.Range.Lo, req.Range.Hi)
		}
	}
	if req.Order != nil && req.Range != nil {
		return fmt.Errorf("scanraw: Order and Range are mutually exclusive")
	}
	return nil
}

// validateOrder checks that a Request.Order callback returned a genuine
// permutation of [0, n): every chunk visited exactly once.
func validateOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("scanraw: visit order has %d entries for %d chunks", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n {
			return fmt.Errorf("scanraw: visit order entry %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("scanraw: visit order repeats chunk %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Run executes one query over the raw file: it delivers every chunk of the
// file (via cache, database, or raw conversion) to req.Deliver exactly
// once, loading data along the way according to the write policy.
func (o *Operator) Run(req Request) (RunStats, error) {
	return o.RunContext(context.Background(), req)
}

// RunContext is Run with cancellation: when ctx is cancelled (client
// disconnect, per-query timeout) the scan stops at the next chunk boundary,
// the stage goroutines unwind, and the disk is released. The returned error
// is ctx.Err() when cancellation cut the run short. Cancellation is
// chunk-granular — an in-flight disk transfer or conversion task finishes
// before the run observes it.
//
// The body is validate → drive → account: the scan itself is the driver in
// driver.go, executed inline or as the READ thread of the pipeline.
func (o *Operator) RunContext(ctx context.Context, req Request) (RunStats, error) {
	o.runMu.Lock()
	defer o.runMu.Unlock()

	var st RunStats
	if err := validateRequest(req, o.table.Schema().NumColumns()); err != nil {
		return st, err
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	start := time.Now()
	prof0 := o.prof.snapshot()
	disk0 := o.disk.Stats()

	r, err := o.newRun(req, o.cfg.Workers)
	if err != nil {
		return st, err
	}
	err = r.execute(ctx)
	// What the run wrote is durable before the run reports it: the rest of
	// its batch is committed behind any commit in flight.
	if cerr := o.commit(true); err == nil {
		err = cerr
	}

	st.DeliveredCache = int(r.bySource[srcCache].Load())
	st.DeliveredDB = int(r.bySource[srcDB].Load())
	st.DeliveredRaw = int(r.bySource[srcRaw].Load())
	st.DeliveredPartial = int(r.bySource[srcPartial].Load())
	st.SkippedChunks = int(r.bySource[srcSkipped].Load())
	st.WrittenDuringRun = int(r.written.Load())
	st.GroupWritesDuringRun = int(r.groupWrites.Load())
	st.ReadBlocked = r.blocked.total()
	if err == nil && r.demandSatisfied() {
		o.accountEarlyTermination(&st, req.Range)
	}
	if err == nil {
		st.FlushedAfterRun = o.safeguardFlush()
		err = o.takeFlushErr()
	}

	st.Duration = time.Since(start)
	st.Profile = o.prof.snapshot().Sub(prof0)
	diskDelta := o.disk.Stats().Sub(disk0)
	st.DiskReadBytes = diskDelta.ReadBytes
	st.DiskWriteBytes = diskDelta.WriteBytes
	return st, err
}

// accountEarlyTermination fills the demand-driven termination fields,
// clamped to the request's chunk range: chunks outside the range were never
// wanted by this request, so terminating early cannot have "saved" them.
func (o *Operator) accountEarlyTermination(st *RunStats, rng *ChunkRange) {
	known := o.table.NumChunks()
	lo, hi := 0, known
	if rng != nil {
		lo = min(rng.Lo, known)
		if rng.Hi > 0 && rng.Hi < known {
			hi = rng.Hi
		}
	}
	saved := max((hi-lo)-st.Delivered()-st.SkippedChunks, 0)
	if saved > 0 || !o.table.Complete() {
		st.TerminatedEarly = true
		st.ChunksSaved = saved
	}
}

// safeguardFlush writes the cache's unloaded chunks in the background and
// returns how many it queued; the next query's disk reads wait for it. An
// early-terminated run flushes too — already-converted chunks are exactly
// the speculative-loading payoff (§4), and the pin taken per chunk while it
// is encoded keeps a concurrent next-query eviction from recycling it. The
// flush ends with a commit of everything it encoded, and journals the
// statistics the run collected if no commit carried them — so a policy that
// writes nothing still journals them once per scan, not once per chunk.
func (o *Operator) safeguardFlush() int {
	var ids []int
	if o.when.atEnd {
		ids = o.cache.UnloadedIDs()
	}
	if len(ids) == 0 && !o.table.HasPending() {
		return 0
	}
	o.flushes.start()
	go func() {
		defer o.flushes.done()
		err := o.flush(ids)
		if err == nil {
			err = o.table.JournalPending()
		}
		if err != nil {
			o.setFlushErr(err)
		}
	}()
	return len(ids)
}

// flush encodes the listed cached chunks that are still unloaded into the
// batch, then commits it.
func (o *Operator) flush(ids []int) error {
	for _, id := range ids {
		bc := o.cache.Acquire(id)
		if bc == nil {
			continue
		}
		if _, err := o.writeCached(bc, nil, nil, 0); err != nil {
			return err
		}
	}
	return o.commit(true)
}

// flushErr propagation: a failed background flush surfaces on the next Run.
func (o *Operator) setFlushErr(err error) {
	o.flushErrMu.Lock()
	if o.flushErr == nil {
		o.flushErr = err
	}
	o.flushErrMu.Unlock()
}

func (o *Operator) takeFlushErr() error {
	o.flushErrMu.Lock()
	defer o.flushErrMu.Unlock()
	err := o.flushErr
	o.flushErr = nil
	return err
}

// slots returns a semaphore channel holding n free slots.
func slots(n int) chan struct{} {
	c := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		c <- struct{}{}
	}
	return c
}

// newRun builds the state of one query execution. With workers == 0 the
// run is inline: no buffers, no stage goroutines, and one implicit worker
// slot for CPU pacing. Otherwise it carries the pipeline of Fig. 2. The
// request has passed validateRequest, which rejects every column set kernel
// selection does; should the two ever disagree, the run fails here rather
// than convert some other way.
func (o *Operator) newRun(req Request, workers int) (*run, error) {
	if n := o.cfg.ConsumeWorkers; n != 0 && n != 1 {
		return nil, fmt.Errorf("scanraw: ConsumeWorkers is %d, but consume is serial: it must be 0 or 1", n)
	}
	kern, err := kernel.For(o.table.Schema(), req.Columns, o.cfg.Delim)
	if err != nil {
		return nil, err
	}
	r := &run{
		op:        o,
		req:       req,
		kern:      kern,
		sc:        newRawScanner(o, o.table.RawFile()),
		delivered: make(map[int]bool),
		kerns:     make(map[string]*kernel.Kernel),
		done:      make(chan struct{}),
		workers:   make(chan *workerSlot, max(workers, 1)),
		gate:      newCacheGate(),
	}
	r.out = inline{r}
	r.afterConvert.Store(o.when.afterConvert)
	if workers == 0 {
		r.workers <- &workerSlot{}
		return r, nil
	}
	r.textBuf = make(chan task, o.cfg.TextBufferChunks)
	r.freeBin = slots(o.cfg.CacheChunks)
	r.deliverCh = make(chan *BinaryChunk, o.cfg.CacheChunks)
	if o.when.idle {
		r.specNotify = make(chan struct{}, 1)
	}
	for i := 0; i < workers; i++ {
		r.workers <- &workerSlot{}
	}
	if req.Satisfied != nil {
		r.satCh = make(chan struct{})
		r.rampOpen = make(chan struct{})
		r.rampSlots = slots(rampWindow)
	}
	return r, nil
}

// execute runs the scan to completion — the cached-first prefix on the
// calling goroutine, then the disk-backed sequence inline or as a pipeline —
// under a cancellation watcher: a cancelled context fails the run, which
// closes r.done and unwinds every stage. The watcher is joined before
// r.runErr is read so the final fail (if any) happens-before the read.
func (r *run) execute(ctx context.Context) error {
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			r.fail(ctx.Err())
		case <-watchStop:
		}
	}()
	err := r.cachedFirst(ctx)
	if err == nil && r.deliverCh == nil {
		err = r.drive(ctx)
	} else if err == nil {
		r.pipeline(ctx)
	}
	r.fail(err)
	close(watchStop)
	<-watchDone
	return r.runErr
}

// pipeline runs a pooled scan: the driver is the READ thread, serve runs on
// the worker pool behind the text chunks buffer, and the calling goroutine
// is the execution engine's feed.
func (r *run) pipeline(ctx context.Context) {
	r.out = pooled{r}
	go r.convertConsumer()
	go func() {
		r.fail(r.drive(ctx))
		close(r.textBuf)
	}()

	// Delivery loop: it consumes each chunk, then releases the chunk's pin
	// and binary-buffer budget. The loop drains deliverCh even after the
	// demand is satisfied or the run failed: consumers ignore surplus chunks,
	// and the releases must still happen for the teardown invariants.
	// convertConsumer closes deliverCh once READ and every task have finished.
	for bc := range r.deliverCh {
		// Not left to execute's watcher goroutine alone: it may not have run
		// yet, and no chunk may reach the consumer after a visible cancel.
		r.fail(ctx.Err())
		r.deliver(bc)
	}
}

// deliver is the CONSUME stage for one pinned, cache-resident chunk: unless
// the run has failed, it calls the request's Deliver on this goroutine —
// paced through cpuWork so engine evaluation occupies simulated CPU like
// conversion does — and a consume error fails the run. Then it releases the
// delivery pin, so an eviction never recycles vectors under evaluation, and
// the emitter's buffer budget. It is the natural point to notice the demand
// is now satisfied or, if it is not, to release the slow-start throttle.
// Only a pipelined delivery releases it: a hit of the cached-first prefix
// costs no conversion, so it is no evidence for committing every worker to
// one.
func (r *run) deliver(bc *BinaryChunk) {
	o := r.op
	if !r.failed() {
		var err error
		d := o.cpuWork(&r.consumeSlot, func() { err = r.req.Deliver(bc) })
		o.prof.consumeNs.Add(int64(d))
		if err == nil {
			o.prof.consumeChunks.Add(1)
		}
		r.fail(err)
	}
	if err := o.cache.Unpin(bc.ID); err != nil {
		r.fail(err)
	}
	_, pipelined := r.out.(pooled)
	if invariantsOn && (pipelined || r.deliverCh == nil) {
		r.consumed.Add(1)
	}
	r.out.release()
	r.gate.broadcast()
	r.poke()
	if !r.demandSatisfied() && pipelined {
		r.openRamp()
	}
}

// convertConsumer monitors the text chunks buffer, dispatching serve per
// task once admitConvert has reserved its resources (§3.2.1, consumer
// threads). When the buffer closes — READ finished — it waits out the
// running tasks and closes the delivery channel: no more deliveries can be
// produced.
func (r *run) convertConsumer() {
	for t := range r.textBuf {
		slot, ramped, ok := r.admitConvert()
		if !ok {
			t.drop(r.op)
			continue
		}
		r.convWG.Add(1)
		go r.serveTask(t, slot, ramped)
	}
	r.convWG.Wait()
	close(r.deliverCh)
}

// admitConvert reserves what one task needs, a page read as much as a
// conversion, or reports false when the task must be dropped (run failed, or
// the demand is satisfied and queued tasks are dead weight — only in-flight
// ones finish, and reach the cache for the safeguard flush). Destination
// space comes before the worker (§3.2.1: "even if a thread is available, it can only be
// allocated if there is empty space in the destination buffer"): a task is
// dispatched only when the binary chunks cache can hold one more undelivered
// chunk — this is the back-pressure that propagates to READ and creates the
// disk-idle windows speculative loading exploits.
func (r *run) admitConvert() (slot *workerSlot, ramped, ok bool) {
	if r.failed() || r.satisfied.Load() || !r.out.admit() {
		return nil, false, false
	}
	// The wait for binary-buffer space can span the delivery that satisfies
	// the demand (its consume frees the space admit waits for); converting
	// the chunk then would be pure waste.
	if r.satisfied.Load() {
		r.out.release()
		return nil, false, false
	}
	// Slow start: until a consumed delivery proves the demand outlives the
	// first chunk, hold admission to the ramp window.
	if r.rampOpen != nil {
		select {
		case <-r.rampOpen:
		default:
			select {
			case <-r.rampOpen:
			case <-r.rampSlots:
				ramped = true
			case <-r.done:
				r.out.release()
				return nil, false, false
			case <-r.satCh:
				r.out.release()
				return nil, false, false
			}
		}
	}
	select {
	case slot = <-r.workers:
		return slot, ramped, true
	case <-r.done:
		if ramped {
			r.rampSlots <- struct{}{}
		}
		r.out.release()
		return nil, false, false
	}
}

func (r *run) serveTask(t task, slot *workerSlot, ramped bool) {
	defer r.convWG.Done()
	if ramped {
		// rampSlots never exceeds its buffered window, so this cannot block.
		defer func() { r.rampSlots <- struct{}{} }()
	}
	r.fail(r.serve(slot, t))
}

// retireEvicted finishes an evicted chunk's life: at the on-eviction moment
// an unloaded victim — neither loaded nor pending — is first encoded into the
// batch, then — whether or not that succeeded — the chunk's vectors return to
// the shared pools. The write is an encode only: its disk work is the
// batch's commit, off the converting goroutine. The recycle is safe because
// eviction implies zero pins, every consumer of a cached chunk — delivery,
// safeguard flush, speculative quantum — holds a pin for the duration of
// its use, and an encoded segment holds no reference to the vectors.
func (r *run) retireEvicted(evicted *BinaryChunk, evictedLoaded bool) error {
	if evicted == nil {
		return nil
	}
	var err error
	if r.op.when.onEviction && !evictedLoaded {
		err = r.runWrite(evicted)
	}
	evicted.RecycleColumns()
	return err
}

// recordStats records the conversion-time statistics of the freshly
// converted columns that have any (the Int64 ones) in one catalog call; they
// are journaled with the table's next append. A chunk with none records
// nothing.
func (r *run) recordStats(bc *BinaryChunk, cols []int) error {
	var have []int
	var stats []dbstore.ColStats
	for _, c := range cols {
		if v := bc.Column(c); v != nil {
			if s := dbstore.CollectStats(v); s.Valid {
				have = append(have, c)
				stats = append(stats, s)
			}
		}
	}
	if have == nil {
		return nil
	}
	return r.op.table.SetChunkStats(bc.ID, have, stats)
}

// insertPinned places a converted (or database-read) chunk into the binary
// cache with a delivery pin, blocking while the cache is full of pinned
// (undelivered) chunks — the back-pressure that ultimately stops READ
// (§3.1, pre-fetching) — and retires whatever the insert evicted. On error
// the chunk holds no pin and the emitter's reservation is returned; a chunk
// the cache never took has been recycled.
func (r *run) insertPinned(bc *BinaryChunk, loaded bool) error {
	var evicted *BinaryChunk
	var evLoaded, ok bool
	r.gate.mu.Lock()
	for !r.failed() {
		if evicted, evLoaded, ok = r.op.cache.PutPinned(bc, loaded); ok {
			break
		}
		r.gate.cond.Wait()
	}
	r.gate.mu.Unlock()
	if !ok {
		// Never cached, never delivered: the vectors are still only ours.
		bc.RecycleColumns()
		r.out.release()
		return r.runErr
	}
	if err := r.retireEvicted(evicted, evLoaded); err != nil {
		_ = r.op.cache.Unpin(bc.ID)
		r.out.release()
		return err
	}
	return nil
}
