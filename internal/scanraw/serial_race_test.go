//go:build race

package scanraw

import (
	"context"
	"runtime"
	"testing"

	"scanraw/internal/engine"
)

// serialProbe is a Deliver that counts its calls in a plain int and fails
// the test when a call begins before the previous one returned. The count is
// read after Run returns, so under the race detector it also proves that
// every call happened before Run's return, with no call overlapping another.
type serialProbe struct {
	t      *testing.T
	inside bool
	calls  int
}

func (p *serialProbe) deliver(*BinaryChunk) error {
	if p.inside {
		p.t.Error("Deliver re-entered")
	}
	p.inside = true
	p.calls++
	runtime.Gosched() // give an overlapping call the chance to show itself
	p.inside = false
	return nil
}

// probeConsumer puts a probe in front of an engine executor, for runs whose
// termination a real query decides.
type probeConsumer struct {
	p  *serialProbe
	ex *engine.Executor
}

func (c probeConsumer) ConsumeCounted(bc *BinaryChunk) (int, error) {
	if err := c.p.deliver(bc); err != nil {
		return 0, err
	}
	return c.ex.ConsumeCounted(bc)
}

// TestDeliverIsSerial holds the consume contract — Deliver is called one
// chunk at a time, on the goroutine that called Run — over every way a chunk
// reaches the consumer: the pooled pipeline, the inline emitter, the
// cached-first prefix, a shared scan's members, a sampled visit order and a
// scan a LIMIT ends early.
func TestDeliverIsSerial(t *testing.T) {
	const rows, chunkLines = 4096, 128 // 32 chunks
	cols := []int{0, 1}
	newOp := func(t *testing.T, cfg Config) (*testEnv, *Operator) {
		env := newEnv(t, rows, 4, nil)
		cfg.ChunkLines = chunkLines
		return env, New(env.store, env.table, cfg)
	}
	probed := func(t *testing.T, op *Operator, req Request) RunStats {
		t.Helper()
		p := &serialProbe{t: t}
		req.Deliver = p.deliver
		st, err := op.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if p.calls == 0 || p.calls != st.Delivered() {
			t.Fatalf("Deliver called %d times for %d delivered chunks", p.calls, st.Delivered())
		}
		return st
	}

	t.Run("pooled", func(t *testing.T) {
		_, op := newOp(t, Config{Workers: 4})
		probed(t, op, Request{Columns: cols})
	})
	t.Run("inline", func(t *testing.T) {
		_, op := newOp(t, Config{Workers: 0})
		probed(t, op, Request{Columns: cols})
	})
	t.Run("cached-first", func(t *testing.T) {
		_, op := newOp(t, Config{Workers: 4, CacheChunks: 8})
		probed(t, op, Request{Columns: cols})
		if st := probed(t, op, Request{Columns: cols}); st.DeliveredCache == 0 || st.DeliveredRaw == 0 {
			t.Fatalf("second run served %d chunks from cache and %d raw, want both", st.DeliveredCache, st.DeliveredRaw)
		}
	})
	t.Run("shared", func(t *testing.T) {
		_, op := newOp(t, Config{Workers: 4})
		// One probe behind both members: members are not called concurrently
		// with each other either.
		p := &serialProbe{t: t}
		reqs := []Request{
			{Columns: []int{0}, Deliver: p.deliver},
			{Columns: []int{1, 2}, Deliver: p.deliver},
		}
		st, per, err := op.RunShared(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if p.calls != 2*st.Delivered() || per[0].DeliveredChunks != st.Delivered() || per[1].DeliveredChunks != st.Delivered() {
			t.Fatalf("Deliver called %d times, members got %d and %d of %d chunks",
				p.calls, per[0].DeliveredChunks, per[1].DeliveredChunks, st.Delivered())
		}
	})
	t.Run("sampled", func(t *testing.T) {
		_, op := newOp(t, Config{Workers: 4})
		probed(t, op, Request{Columns: cols, Order: revPerm})
	})
	t.Run("limit", func(t *testing.T) {
		// A one-chunk cache admits a conversion only once the previous chunk
		// was consumed, so the scan stops long before end-of-file.
		env, op := newOp(t, Config{Workers: 4, CacheChunks: 1})
		q, err := engine.ParseSQL("SELECT c0, c1 FROM data LIMIT 5", env.table.Schema())
		if err != nil {
			t.Fatal(err)
		}
		ex, err := engine.NewExecutor(q, env.table.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p := &serialProbe{t: t}
		m := Member{Query: q, Consumer: probeConsumer{p: p, ex: ex}}
		st, err := op.Run(m.Request(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		if !st.TerminatedEarly || p.calls == 0 || p.calls > st.Delivered() {
			t.Fatalf("terminated early %v; Deliver called %d times for %d delivered chunks",
				st.TerminatedEarly, p.calls, st.Delivered())
		}
		if res, err := ex.Result(); err != nil || len(res.Rows) != 5 {
			t.Fatalf("LIMIT 5 answered %v, %v", res, err)
		}
	})
}
