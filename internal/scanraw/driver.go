package scanraw

import (
	"context"
	"fmt"
	"sync/atomic"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
)

// The scan driver: visit sequence → resolve → emit.
//
// Every scan is one loop (walk) over a visit sequence. Each step is
// resolved exactly once into where the chunk is served from, and the
// resolution is handed to one of two emitters, chosen by whether the pool
// has workers: inline (convert and consume on this goroutine, nothing
// overlaps) or pooled (the driver is the READ thread of the Fig. 2
// pipeline). An ordinary scan visits the cache-resident chunks first
// (§3.2.1 delivery order) and then the file in chunk order, discovering
// chunk boundaries on first contact; a sampled scan (Request.Order) visits
// the validated permutation and nothing else.

// source is the outcome of resolving one visit step.
type source uint8

const (
	// srcNone: outside this request's universe (out of Range), already
	// accounted for by the cached-first prefix, or not servable from memory
	// before the disk-backed part of the sequence has begun.
	srcNone source = iota
	// srcSkipped: excluded by the request's Skip filter.
	srcSkipped
	// srcCache: the binary cache holds every requested column; the
	// resolution carries the chunk with a pin taken.
	srcCache
	// srcDB: every requested column is loaded; read the pages.
	srcDB
	// srcRaw: convert from the raw extent — the whole column closure, or
	// with a plan only the missing groups (a partial-width hit).
	srcRaw
)

type resolution struct {
	src  source
	bc   *BinaryChunk // srcCache: pinned
	plan *partialPlan // srcRaw: non-nil for a partial-width hit
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
func (r *run) resolve(st step) (resolution, error) {
	o, cols := r.op, r.req.Columns
	if !r.req.Range.Contains(st.id) || r.delivered[st.id] {
		return resolution{}, nil
	}
	if st.meta == nil {
		// Carved this instant: no statistics, no pages, no cache entry.
		return resolution{src: srcRaw}, nil
	}
	if r.req.Skip != nil && r.req.Skip(st.meta) {
		return resolution{src: srcSkipped}, nil
	}
	if bc := o.cache.Acquire(st.id); bc != nil {
		if bc.HasAll(cols) {
			return resolution{src: srcCache, bc: bc}, nil
		}
		if err := o.cache.Unpin(st.id); err != nil {
			return resolution{}, err
		}
	}
	if !r.disk {
		// The previous query's safeguard flush may still own the disk: a
		// chunk that memory cannot serve waits for its file-order visit.
		return resolution{}, nil
	}
	if st.meta.LoadedAll(cols) {
		return resolution{src: srcDB}, nil
	}
	// Some (but not all) requested columns loaded is a partial-width hit:
	// convert only the missing groups and merge the rest from their pages.
	plan, err := r.planFor(st.meta)
	return resolution{src: srcRaw, plan: plan}, err
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
	o.flushWG.Wait()
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
// and cancellation, then resolves the step and emits the resolution.
//
// In-flight bound: the driver runs ahead of the consume stage by at most
//
//	TextBufferChunks + CacheChunks + 2
//
// chunks issued and not yet consumed — one in the driver's hands, one in
// the conversion consumer's, the rest holding a buffer slot (a conversion
// task holds a slot of the binary cache it writes to, so the pool size adds
// nothing; an inline run holds one chunk per consume worker, each pinned in
// the cache). This is what bounds the work a LIMIT strands in flight, and
// the invariants build asserts it — over the disk-backed sequence: a pooled
// run's cached-first prefix goes through the inline emitter and holds no
// buffer slot, so with a consume fan-out up to one prefix chunk per worker
// can still be under evaluation, beside a full pipeline, when the count is
// taken.
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
		res, err := r.resolve(st)
		if err != nil {
			return err
		}
		if !r.disk && res.src != srcNone {
			r.delivered[st.id] = true
		}
		if invariantsOn && res.src > srcSkipped && (r.disk || r.deliverCh == nil) {
			r.issued++
			bound := int64(o.cfg.TextBufferChunks + o.cfg.CacheChunks + 2)
			if n := r.issued - r.consumed.Load(); n > bound && !r.satisfied.Load() && !r.failed() {
				panic(fmt.Sprintf("invariant violation: scanraw: %d chunks in flight, bound %d", n, bound))
			}
		}
		switch res.src {
		case srcSkipped:
			r.skipped.Add(1)
		case srcCache:
			if r.out.admit() {
				r.out.hand(res.bc, &r.deliveredCache)
			} else {
				err = o.cache.Unpin(st.id)
			}
		case srcDB:
			// Binary-buffer space first, mirroring the conversion rule.
			if !r.out.admit() {
				break
			}
			var bc *BinaryChunk
			if bc, err = o.dbRead(st.id, r.req.Columns); err != nil {
				r.out.release()
			} else if err = r.insertPinned(bc, true); err == nil {
				r.out.hand(bc, &r.deliveredDB)
			}
		case srcRaw:
			tc := st.text
			if tc == nil {
				// Known geometry: read exactly the extent — RawOff makes a
				// permuted visit as cheap as the file-order one.
				var data []byte
				if data, err = r.sc.readExtent(st.meta.RawOff, st.meta.RawLen); err != nil {
					return err
				}
				tc = &chunk.TextChunk{ID: st.id, Data: data, Lines: st.meta.Rows}
			}
			o.prof.readChunks.Add(1)
			err = r.out.raw(convItem{tc: tc, plan: res.plan})
		}
		if err != nil {
			return err
		}
	}
}

// emitter is how a resolved chunk reaches conversion and the consume stage.
// The disk-backed sequence uses the one chosen when the run was built:
// inline when the pool has no workers, pooled otherwise.
type emitter interface {
	// admit reserves room for one more undelivered binary chunk; false
	// means the run failed or its demand was satisfied while waiting.
	admit() bool
	// release returns a reservation: its chunk was consumed, or never will
	// be delivered.
	release()
	// hand passes a pinned, cache-resident chunk on to the consume stage,
	// counting it in n once it is on its way.
	hand(bc *BinaryChunk, n *atomic.Int64)
	// raw takes a raw chunk's text for conversion.
	raw(it convItem) error
}

// inline is the emitter of a run without a worker pool (the paper's "0
// worker threads" configuration): every stage of a chunk — conversion,
// cache insert, consume, and at the idle moment one write quantum, spent
// when the disk would otherwise idle until the next read — finishes on the
// driver's goroutine before the next chunk is visited.
type inline struct{ r *run }

func (inline) admit() bool { return true }
func (inline) release()    {}

func (e inline) hand(bc *BinaryChunk, n *atomic.Int64) {
	e.r.deliver(bc)
	if !e.r.failed() {
		n.Add(1)
	}
}

func (e inline) raw(it convItem) error {
	r := e.r
	if err := r.emitConverted(<-r.workers, it); err != nil {
		return err
	}
	if r.op.when.idle {
		// specStep pins whatever it writes, shielding it from an eviction
		// by a still-running fan-out consume.
		_, err := r.specStep()
		return err
	}
	return nil
}

// pooled is the emitter of a pipelined run: binary chunks take a slot of
// the undelivered-chunk budget and queue for the delivery loop; raw text
// enters the text chunks buffer for the conversion stages.
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

func (e pooled) hand(bc *BinaryChunk, n *atomic.Int64) {
	select {
	case e.r.deliverCh <- bc:
		n.Add(1)
		e.r.poke() // cache gained a chunk: wake the speculative scheduler
	case <-e.r.done:
		_ = e.r.op.cache.Unpin(bc.ID)
		e.release()
	}
}

func (e pooled) raw(it convItem) error {
	e.r.sendText(it)
	return nil
}

// convert is the one conversion routine: the kernel's fused pass over the
// chunk's convert set on the given worker slot (returned to the pool as
// soon as the CPU work is done), conversion-time statistics, the merge of a
// partial-width hit's loaded columns, and the after-convert write. loaded
// reports that the chunk is now in the database. On error nothing is
// retained.
func (r *run) convert(slot *workerSlot, it convItem) (bc *BinaryChunk, loaded bool, err error) {
	o, tc := r.op, it.tc
	kern := r.kern
	if it.plan != nil {
		kern = it.plan.kern
	}
	d := o.cpuWork(slot, func() { bc, err = kern.Convert(tc) })
	o.putText(tc.Data) // the kernel kept nothing of it, converted or not
	o.prof.parseNs.Add(int64(d))
	r.workers <- slot
	if err != nil {
		return nil, false, err
	}
	o.prof.parseChunks.Add(1)
	if o.cfg.CollectStats {
		// Only the freshly converted columns: the merged-in loaded columns
		// had their statistics recorded when they were first converted.
		err = r.recordStats(bc, kern.Columns())
	}
	if err == nil && it.plan != nil {
		// Merge the loaded requested columns in from their pages. The merged
		// chunk owns the vectors; dbc itself is just the carrier.
		var dbc *BinaryChunk
		if dbc, err = o.dbRead(bc.ID, it.plan.fromDB); err == nil {
			if err = bc.Merge(dbc); err != nil {
				dbc.RecycleColumns()
			}
		}
	}
	if err == nil {
		// The after-convert moment: while the run's budget lasts, store the
		// chunk before it is cached, on this goroutine — its worker slot is
		// already back in the pool, its binary-buffer slot is not.
		if loaded = r.afterConvert.Add(-1) >= 0; loaded {
			err = r.runWrite(bc)
		}
	}
	if err != nil {
		bc.RecycleColumns()
		return nil, false, err
	}
	return bc, loaded, nil
}

// emitConverted converts one raw chunk and emits the result: cache insert
// with a delivery pin, then the consume stage.
func (r *run) emitConverted(slot *workerSlot, it convItem) error {
	bc, loaded, err := r.convert(slot, it)
	if err != nil {
		r.out.release()
		return err
	}
	err = r.insertPinned(bc, loaded)
	if err != nil {
		return err
	}
	n := &r.deliveredRaw
	if it.plan != nil {
		n = &r.deliveredPartial
	}
	r.out.hand(bc, n)
	return nil
}
