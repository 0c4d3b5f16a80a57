package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"scanraw/internal/cache"
	"scanraw/internal/chunk"
	"scanraw/internal/engine"
	"scanraw/internal/kernel"
	"scanraw/internal/ola"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
)

// plan is how one query is served chunk by chunk — the decision the operator
// makes per chunk, fixed here by hand so the replay can call each layer
// serially and time it.
type plan struct {
	name string
	q    *query
	// convert lists the columns converted from raw text, fromDB those read
	// from database pages; both set is a partial-width hit. Neither set
	// means the chunks are cache-resident.
	convert, fromDB []int
	// write lists the columns written back as pages after conversion.
	write []int
	// stream materialises rows (ChunkRows) and encodes them as NDJSON
	// instead of folding the chunk into an aggregate.
	stream bool
	// limit stops the walk once this many rows matched (LIMIT n).
	limit int
}

// named returns the plan under "<workload>/<name>", the query id its spans
// carry and the suffix of its root span's name.
func (pl plan) named(workload string) plan {
	pl.name = workload + "/" + pl.name
	return pl
}

// sample reports whether the plan walks the chunks in the OLA permutation of
// the query's seed until the bound converges.
func (pl plan) sample() bool { return pl.q.class == "ola" }

// readBlock is the operator's default ReadBlockBytes.
const readBlock = 256 << 10

// replay serves one query serially by hand over the stack p, recording a
// span around every call into a layer, and returns the wall time of the whole
// replay. resident holds the chunks a cache-resident plan reads.
func replay(tr *tracer, p *inproc, pl plan, resident *cache.Cache) (time.Duration, error) {
	start := time.Now()
	root := tr.begin(-1, pl.name, "replay."+pl.name)
	err := replayUnder(tr, root, p, pl, resident)
	tr.end(root)
	return time.Since(start), err
}

func replayUnder(tr *tracer, root int, p *inproc, pl plan, resident *cache.Cache) error {
	sch := p.ds.schema()
	call := func(name string) int { return tr.begin(root, pl.name, name) }

	sp := call("engine.ParseSQL")
	q, err := engine.ParseSQL(pl.q.sql, sch)
	tr.end(sp)
	if err != nil {
		return err
	}
	part, err := engine.NewPartial(q, sch)
	if err != nil {
		return err
	}

	var k *kernel.Kernel
	if pl.convert != nil {
		if k, err = kernel.For(sch, pl.convert, p.ds.delim()); err != nil {
			return err
		}
		// READ: the whole raw blob, one block at a time, as the operator's
		// reader does. The bytes land where the carved chunks already alias.
		buf := make([]byte, readBlock)
		for off := int64(0); off < p.ds.bytes; off += readBlock {
			sp := call("store.ReadAt")
			_, err := p.disk.ReadAt(rawBlob, buf, off)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}

	order := make([]int, len(p.chunks))
	for i := range order {
		order[i] = i
	}
	var runner *ola.Runner
	if pl.sample() {
		if runner, err = ola.NewRunner(q, sch, ola.Config{Tolerance: pl.q.olaError}, nil); err != nil {
			return err
		}
		order = runner.Order(pl.q.olaSeed)(len(p.chunks))
	}

	out := bufio.NewWriterSize(io.Discard, 4<<10) // the size of net/http's response buffer
	enc := json.NewEncoder(out)
	matched := 0
	for _, id := range order {
		var bc *chunk.BinaryChunk
		pinned := false
		switch {
		case pl.fromDB != nil:
			sp := call("dbstore.ReadChunk")
			bc, err = p.st.ReadChunk(p.table, id, pl.fromDB)
			tr.end(sp)
		case pl.convert == nil:
			sp := call("cache.Acquire")
			bc = resident.Acquire(id)
			tr.end(sp)
			if bc == nil {
				err = fmt.Errorf("replay %s: chunk %d is not cache-resident", pl.name, id)
			}
			pinned = bc != nil
		}
		if err == nil && pl.convert != nil {
			sp := call("kernel.Convert")
			conv, cerr := k.Convert(p.chunks[id])
			tr.end(sp)
			switch {
			case cerr != nil:
				err = cerr
			case bc == nil:
				bc = conv
			default:
				err = bc.Merge(conv)
			}
		}
		if err == nil {
			switch {
			case pl.stream:
				sp := call("engine.ChunkRows")
				rows, rerr := part.ChunkRows(bc)
				tr.end(sp)
				err = rerr
				sp = call("server.EncodeNDJSON")
				for _, row := range rows {
					if eerr := enc.Encode(jsonRow(row)); eerr != nil {
						err = eerr
					}
				}
				tr.end(sp)
			case runner != nil:
				sp := call("ola.Consume")
				_, err = runner.ConsumeCounted(bc)
				tr.end(sp)
			default:
				sp := call("engine.Consume")
				n, cerr := part.ConsumeCounted(bc)
				tr.end(sp)
				matched += n
				err = cerr
			}
		}
		if err == nil && pl.write != nil {
			sp := call("dbstore.WriteChunkColumns")
			err = p.st.WriteChunkColumns(p.table, bc, pl.write)
			tr.end(sp)
		}
		if pinned {
			if uerr := resident.Unpin(id); err == nil {
				err = uerr
			}
		} else if bc != nil {
			bc.RecycleColumns()
		}
		if err != nil {
			return fmt.Errorf("replay %s: chunk %d: %w", pl.name, id, err)
		}
		if (pl.limit > 0 && matched >= pl.limit) || (runner != nil && runner.Satisfied()) {
			break
		}
	}

	if !pl.stream {
		sp := call("engine.Result")
		var res *engine.Result
		if runner != nil {
			res, err = runner.Result()
		} else {
			res, err = part.Result()
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = call("server.EncodeJSON")
		rows := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = jsonRow(row)
		}
		err = enc.Encode(map[string]any{"columns": res.Cols, "rows": rows})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return out.Flush()
}

// jsonRow converts engine values the way the server's encoder does.
func jsonRow(row []engine.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Typ {
		case schema.Int64:
			out[i] = v.Int
		case schema.Float64:
			out[i] = v.Float
		default:
			out[i] = v.Str
		}
	}
	return out
}

// throughOperator runs the same query through the real operator (the
// parallel pipeline, its cache and its write policy) under one enclosing
// span, and returns its wall time and stats.
func throughOperator(ctx context.Context, tr *tracer, op *scanraw.Operator, pl plan) (time.Duration, scanraw.RunStats, error) {
	q, err := engine.ParseSQL(pl.q.sql, op.Table().Schema())
	if err != nil {
		return 0, scanraw.RunStats{}, err
	}
	sp := tr.begin(-1, pl.name, "scanraw.ExecuteQuery")
	start := time.Now()
	var st scanraw.RunStats
	if pl.sample() {
		_, _, st, err = ola.Run(ctx, op, q, ola.Config{Tolerance: pl.q.olaError}, pl.q.olaSeed, nil)
	} else {
		_, st, err = scanraw.ExecuteQueryContext(ctx, op, q)
	}
	wall := time.Since(start)
	tr.end(sp)
	return wall, st, err
}
