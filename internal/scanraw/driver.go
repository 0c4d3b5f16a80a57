package scanraw

import (
	"context"
	"fmt"
	"time"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/kernel"
)

// The scan driver: visit sequence → resolve → fetch → emit → serve.
//
// Every scan is one loop (walk) over a visit sequence. Each step is
// resolved exactly once into a task — where the chunk is served from, what
// to convert, which columns to read from pages. The driver performs the
// task's disk transfers itself and hands it to one of two emitters, chosen
// by whether the pool has workers: inline (serve and consume on this
// goroutine, nothing overlaps) or pooled (the driver is the READ thread of
// the Fig. 2 pipeline and serve runs on the worker pool). An ordinary scan
// visits the cache-resident chunks first (§3.2.1 delivery order) and then
// the file in chunk order, discovering chunk boundaries on first contact; a
// sampled scan (Request.Order) visits the validated permutation and nothing
// else.

// source is the outcome of resolving one visit step.
type source uint8

const (
	// srcNone: outside this request's universe (out of Range), already
	// accounted for by the cached-first prefix, or not servable from memory
	// before the disk-backed part of the sequence has begun.
	srcNone source = iota
	// srcSkipped: excluded by the request's Skip filter.
	srcSkipped
	// srcCache: the binary cache holds every requested column — or, for a
	// counted one (Request.counted), the catalog marks it loaded; the task
	// carries the chunk with a pin taken.
	srcCache
	// srcDB: every requested column is loaded; read the pages of those the
	// request reads.
	srcDB
	// srcPartial: some requested columns are loaded (a partial-width hit);
	// read the pages of those the request reads and convert only the
	// missing columns.
	srcPartial
	// srcRaw: no column the request reads is loaded; convert the missing
	// columns — every requested one, or all but the loaded counted ones —
	// from the raw extent.
	srcRaw
	numSources
)

// task is one chunk's service. resolve fills in the plan, fetch — on the
// driver — the transferred bytes, and serve does the rest. Until serve or
// drop takes it, the task owns its text buffer and its pages.
type task struct {
	src      source
	bc       *BinaryChunk   // srcCache: pinned
	kern     *kernel.Kernel // the columns to convert; nil when every requested column is loaded
	pageCols []int          // the requested columns served from pages; nil when none is loaded

	text  chunk.TextChunk     // the raw extent kern converts
	pages *dbstore.ChunkPages // the transferred pages of pageCols
}

// drop hands back what a task fetched and nobody will serve.
func (t *task) drop(o *Operator) {
	o.putText(t.text.Data)
	if t.pages != nil {
		t.pages.Release()
	}
}

// step is one element of a visit sequence. meta is nil for a chunk
// discovered this instant, and if the request's range wants it text holds the
// carved bytes — a text buffer whoever takes the step owns.
type step struct {
	id   int
	meta *dbstore.ChunkMeta
	text *chunk.TextChunk
}

// visit yields the next step of a sequence; ok=false ends it.
type visit func() (st step, ok bool, err error)

// resolve answers the per-chunk question "skip, cache, database,
// partial-width or raw?" — the only place that consults the range, the
// delivered set, the Skip filter, the binary cache and the catalog's loaded
// columns for the request.
func (r *run) resolve(st step) (task, error) {
	o := r.op
	if !r.req.Range.Contains(st.id) || r.delivered[st.id] {
		return task{}, nil
	}
	if st.meta == nil {
		// Carved this instant: no statistics, no pages, no cache entry.
		return task{src: srcRaw, kern: r.kern}, nil
	}
	if r.req.Skip != nil && r.req.Skip(st.meta) {
		return task{src: srcSkipped}, nil
	}
	if bc := o.cache.Acquire(st.id); bc != nil {
		if bc.HasAll(r.req.Columns) && r.countedServed(bc, st.meta) {
			return task{src: srcCache, bc: bc}, nil
		}
		if err := o.cache.Unpin(st.id); err != nil {
			return task{}, err
		}
	}
	if !r.disk {
		// The previous query's safeguard flush may still own the disk: a
		// chunk that memory cannot serve waits for its file-order visit.
		return task{}, nil
	}
	return r.planFor(st.meta)
}

// countedServed reports whether a cache entry serves the request's counted
// columns: each is in the entry or, being loaded, need not be.
func (r *run) countedServed(bc *BinaryChunk, meta *dbstore.ChunkMeta) bool {
	for _, c := range r.req.counted {
		if !bc.Has(c) && !isLoaded(meta, c) {
			return false
		}
	}
	return true
}

// listVisit visits known chunks in the given order: the cached-first prefix
// of an ordinary scan, or a sampled scan's permutation.
func (r *run) listVisit(ids []int) visit {
	i := 0
	return func() (step, bool, error) {
		if i == len(ids) {
			return step{}, false, nil
		}
		id := ids[i]
		i++
		meta, known := r.op.table.Chunk(id)
		if !known {
			return step{}, false, fmt.Errorf("scanraw: chunk %d vanished from the catalog", id)
		}
		return step{id: id, meta: meta}, true, nil
	}
}

// fileVisit visits the file in chunk order. Known chunks come from the
// catalog; past them it carves the next chunk out of the byte stream and
// registers its geometry, so one cold scan doubles as discovery. The table
// is marked complete only at true end-of-file — a sequence cut short by the
// range's upper bound (everything past Hi belongs to other requests or
// peers) or abandoned by a satisfied demand never is.
func (r *run) fileVisit() visit {
	o := r.op
	id := 0
	var off int64
	return func() (step, bool, error) {
		if rng := r.req.Range; rng != nil && rng.Hi > 0 && id >= rng.Hi {
			return step{}, false, nil
		}
		st := step{id: id}
		if meta, known := o.table.Chunk(id); known {
			st.meta = meta
			off = meta.RawOff + meta.RawLen
		} else {
			r.sc.seek(off)
			data, lines, err := r.sc.next(o.cfg.ChunkLines)
			if err != nil {
				return step{}, false, err
			}
			if lines == 0 {
				return step{}, false, o.table.SetComplete()
			}
			if err := o.table.EnsureChunk(id, lines, off, int64(len(data))); err != nil {
				o.putText(data)
				return step{}, false, err
			}
			off += int64(len(data))
			if r.req.Range.Contains(id) {
				st.text = &chunk.TextChunk{ID: id, Data: data, Lines: lines}
			} else {
				o.putText(data) // carved for its boundary only
			}
		}
		id++
		return st, true, nil
	}
}

// discoverAll completes chunk discovery without converting anything: it
// drains the file-order sequence, handing the carved text straight back.
// Sampled scans need the total chunk count before the first delivery, so on a
// cold file this costs one sequential read of the undiscovered tail.
func (r *run) discoverAll(ctx context.Context) error {
	if r.op.table.Complete() {
		return nil
	}
	next := r.fileVisit()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, ok, err := next()
		if !ok {
			return err
		}
		if st.text != nil {
			r.op.putText(st.text.Data)
		}
	}
}

// cachedFirst visits the cache-resident chunks ahead of everything else
// (§3.2.1 delivery order). It needs neither the disk nor the pool, so it
// runs before either is touched, through the inline emitter: each hit is
// consumed before the next is visited, and a demand that memory alone
// satisfies stops at once. Sampled scans have no cached prefix: delivering
// hot chunks first would bias the sample, so their cache hits are served
// when the permutation reaches them.
func (r *run) cachedFirst(ctx context.Context) error {
	if r.req.Order != nil {
		return nil
	}
	return r.walk(ctx, r.listVisit(r.op.cache.IDs()))
}

// drive runs the disk-backed part of the visit sequence, once the previous
// query's safeguard flush has released the disk (§4: "only the reading of
// new chunks has to be delayed until flushing the cache is over" — the
// cached prefix did not wait). An ordinary scan continues in file order; a
// sampled scan completes discovery first, because its permutation is over
// the whole chunk universe, then visits the validated order.
func (r *run) drive(ctx context.Context) error {
	o := r.op
	o.flushes.wait()
	r.disk = true
	defer r.sc.release()
	if r.req.Order == nil {
		return r.walk(ctx, r.fileVisit())
	}
	if err := r.discoverAll(ctx); err != nil {
		return err
	}
	n := o.table.NumChunks()
	order := r.req.Order(n)
	if err := validateOrder(order, n); err != nil {
		return err
	}
	return r.walk(ctx, r.listVisit(order))
}

// walk is the one visit loop. Once per step it checks for failure, a
// satisfied demand (the result is provably complete: stop issuing chunks)
// and cancellation, then resolves the step, fetches the task and emits it.
//
// In-flight bound: the driver runs ahead of the consume stage by at most
//
//	TextBufferChunks + CacheChunks + 2
//
// chunks issued and not yet consumed — one in the driver's hands, one in
// the conversion consumer's, the rest holding a buffer slot (a task in
// service holds a slot of the binary cache it writes to, so the pool size
// adds nothing; an inline run holds the one chunk it is consuming). A page
// read takes a text-buffer slot like a conversion, so the bound is the same
// whatever the chunks' sources. The slots are counted in chunks — the
// delivery budget is CacheChunks of them — while the cache itself counts
// bytes, so the chunks it holds may outnumber the slots. This is what
// bounds the work a LIMIT strands in flight, and the invariants build
// asserts it — over the disk-backed sequence: a pooled run's cached-first
// prefix goes through the inline emitter and holds no buffer slot, and is
// consumed in full before the pipeline starts.
func (r *run) walk(ctx context.Context, next visit) error {
	o := r.op
	for {
		if r.failed() || r.demandSatisfied() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st, ok, err := next()
		if !ok {
			return err
		}
		t, err := r.resolve(st)
		if err != nil {
			return err
		}
		if !r.disk && t.src != srcNone {
			r.delivered[st.id] = true
		}
		if invariantsOn && t.src > srcSkipped && (r.disk || r.deliverCh == nil) {
			r.issued++
			bound := int64(o.cfg.TextBufferChunks + o.cfg.CacheChunks + 2)
			if n := r.issued - r.consumed.Load(); n > bound && !r.satisfied.Load() && !r.failed() {
				panic(fmt.Sprintf("invariant violation: scanraw: %d chunks in flight, bound %d", n, bound))
			}
		}
		switch t.src {
		case srcSkipped:
			r.bySource[srcSkipped].Add(1)
		case srcCache:
			if r.out.admit() {
				r.out.hand(t.bc, srcCache)
			} else {
				err = o.cache.Unpin(st.id)
			}
		case srcDB, srcPartial, srcRaw:
			if err = r.fetch(&t, st); err == nil {
				err = r.out.emit(t)
			}
		}
		if err != nil {
			return err
		}
	}
}

// fetch performs a task's disk transfers, on the driver: the raw extent its
// kernel converts — unless discovery carved it this instant — and the pages
// of its loaded columns, under the disk arbiter (the scanner takes it per
// read). Profile.Read counts each transfer. On error the task holds nothing.
func (r *run) fetch(t *task, st step) error {
	o := r.op
	if t.kern != nil {
		if st.text != nil {
			t.text = *st.text
		} else {
			// Known geometry: read exactly the extent — RawOff makes a
			// permuted visit as cheap as the file-order one.
			data, err := r.sc.readExtent(st.meta.RawOff, st.meta.RawLen)
			if err != nil {
				return err
			}
			t.text = chunk.TextChunk{ID: st.id, Data: data, Lines: st.meta.Rows}
		}
		o.prof.readChunks.Add(1)
	}
	if t.pageCols == nil {
		return nil
	}
	o.arbiter.Lock()
	start := time.Now()
	pages, err := o.store.FetchChunk(o.table, st.id, t.pageCols)
	o.prof.readNs.Add(int64(time.Since(start)))
	o.arbiter.Unlock()
	if err != nil {
		t.drop(o)
		return err
	}
	t.pages = pages
	o.prof.readChunks.Add(1)
	return nil
}

// emitter is how a fetched task reaches serve and a binary chunk the consume
// stage. The disk-backed sequence uses the one chosen when the run was
// built: inline when the pool has no workers, pooled otherwise.
type emitter interface {
	// admit reserves room for one more undelivered binary chunk; false
	// means the run failed or its demand was satisfied while waiting.
	admit() bool
	// release returns a reservation: its chunk was consumed, or never will
	// be delivered.
	release()
	// hand passes a pinned, cache-resident chunk on to the consume stage,
	// counting it under its source once it is on its way.
	hand(bc *BinaryChunk, src source)
	// emit takes a fetched task for serve.
	emit(t task) error
}

// inline is the emitter of a run without a worker pool (the paper's "0
// worker threads" configuration): every stage of a chunk — decode and
// conversion, cache insert, consume, and after a conversion (the idle
// moment) one write quantum, spent when the disk would otherwise idle until
// the next read — finishes on the driver's goroutine before the next chunk
// is visited.
type inline struct{ r *run }

func (inline) admit() bool { return true }
func (inline) release()    {}

func (e inline) hand(bc *BinaryChunk, src source) {
	e.r.deliver(bc)
	if !e.r.failed() {
		e.r.bySource[src].Add(1)
	}
}

func (e inline) emit(t task) error {
	r := e.r
	if err := r.serve(<-r.workers, t); err != nil {
		return err
	}
	if r.op.when.idle && t.kern != nil {
		// A conversion is the idle moment; a page read left the disk busy.
		_, err := r.specStep()
		return err
	}
	return nil
}

// pooled is the emitter of a pipelined run: binary chunks take a slot of
// the undelivered-chunk budget and queue for the delivery loop; tasks enter
// the text chunks buffer for the worker pool.
type pooled struct{ r *run }

func (e pooled) admit() bool {
	select {
	case <-e.r.freeBin:
		return true
	case <-e.r.done:
	case <-e.r.satCh:
	}
	return false
}

func (e pooled) release() { e.r.freeBin <- struct{}{} }

func (e pooled) hand(bc *BinaryChunk, src source) {
	select {
	case e.r.deliverCh <- bc:
		e.r.bySource[src].Add(1)
		e.r.poke() // cache gained a chunk: wake a blocked driver to write it
	case <-e.r.done:
		_ = e.r.op.cache.Unpin(bc.ID)
		e.release()
	}
}

// emit places a task into the text chunks buffer. A full buffer blocks READ
// and the disk goes idle: the speculative loading trigger (§4) and the
// CPU-bound signal the resource manager consumes (§3.3). While it waits, the
// driver spends idle quanta itself, one at a time with a send attempt
// between them, so READ takes the disk back the moment the buffer has room.
// With nothing left to write it sleeps until the send succeeds or the cache
// gains a chunk. The task is dropped when the run fails or its demand is
// satisfied while READ waits. Once READ has finished, what is still unloaded
// waits for the safeguard flush (DESIGN.md §16 has the departure from §4).
func (e pooled) emit(t task) error {
	r := e.r
	select {
	case r.textBuf <- t:
		return nil
	default:
	}
	start := time.Now()
	defer func() { r.blocked.add(time.Since(start)) }()
	for {
		for r.specNotify != nil && !r.failed() && !r.satisfied.Load() {
			wrote, err := r.specStep()
			if err != nil {
				t.drop(r.op)
				return err
			}
			if !wrote {
				break
			}
			select {
			case r.textBuf <- t:
				return nil
			default:
			}
		}
		select {
		case r.textBuf <- t:
			return nil
		case <-r.specNotify:
			continue
		case <-r.done:
		case <-r.satCh:
		}
		t.drop(r.op)
		return nil
	}
}

// serve is the one routine that does a fetched task's CPU work, on the given
// worker slot: the pages' checksum and decode (the read's CPU half: timed
// into Profile.Read, not stretched by CPUSlowdown), the kernel's fused pass
// over the convert set — after which the text goes back and the slot returns
// to the pool — the conversion-time statistics, the merge of the paged
// columns, the cache insert with a delivery pin, the after-convert write, and
// finally the hand-off to the consume stage. On error nothing is retained.
func (r *run) serve(slot *workerSlot, t task) error {
	o, src := r.op, t.src
	var bc, paged *BinaryChunk
	var err error
	if t.pages != nil {
		start := time.Now()
		paged, err = t.pages.Decode()
		o.prof.readNs.Add(int64(time.Since(start)))
	}
	if err == nil && t.kern != nil {
		d := o.cpuWork(slot, func() { bc, err = t.kern.Convert(&t.text) })
		o.prof.parseNs.Add(int64(d))
	}
	o.putText(t.text.Data) // the kernel kept nothing of it; a page read has none
	r.workers <- slot
	loaded := t.kern == nil // every requested column came from its pages
	switch {
	case err != nil:
	case loaded:
		bc, paged = paged, nil
	default:
		o.prof.parseChunks.Add(1)
		if o.cfg.CollectStats {
			// Only the freshly converted columns: the paged ones had their
			// statistics recorded when they were first converted.
			err = r.recordStats(bc, t.kern.Columns())
		}
		if err == nil && paged != nil {
			if err = bc.Merge(paged); err == nil {
				paged = nil // bc owns its vectors now
			}
		}
	}
	if err != nil {
		for _, c := range []*BinaryChunk{bc, paged} {
			if c != nil {
				c.RecycleColumns()
			}
		}
		r.out.release()
		return err
	}
	// The after-convert moment: while the run's budget lasts, store the chunk
	// once it is cached and before it is delivered, on this goroutine — its
	// worker slot is already back in the pool, its delivery pin keeps the
	// vectors for the encode.
	write := !loaded && r.afterConvert.Add(-1) >= 0
	err = r.insertPinned(bc, loaded)
	if err != nil {
		return err
	}
	if write {
		if err = r.runWrite(bc); err != nil {
			_ = o.cache.Unpin(bc.ID)
			r.out.release()
			return err
		}
	}
	r.out.hand(bc, src)
	return nil
}
