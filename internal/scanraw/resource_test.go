package scanraw

import (
	"testing"
	"time"
)

func TestBlockedFraction(t *testing.T) {
	cases := []struct {
		rep  ResourceReport
		want float64
	}{
		{ResourceReport{ReadBlocked: 0, Duration: time.Second}, 0},
		{ResourceReport{ReadBlocked: time.Second / 2, Duration: time.Second}, 0.5},
		{ResourceReport{ReadBlocked: 2 * time.Second, Duration: time.Second}, 1},
		{ResourceReport{ReadBlocked: time.Second, Duration: 0}, 0},
	}
	for _, c := range cases {
		if got := c.rep.BlockedFraction(); got != c.want {
			t.Errorf("BlockedFraction(%+v) = %v, want %v", c.rep, got, c.want)
		}
	}
}

func TestAdaptWorkersHeuristic(t *testing.T) {
	env := newEnv(t, 64, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 4, AdaptiveWorkers: true, // pool bounds [1,16]
	})
	// CPU-bound report: pool doubles.
	op.adaptWorkers(ResourceReport{Workers: 4, ReadBlocked: 800 * time.Millisecond, Duration: time.Second})
	if op.workers != 8 {
		t.Errorf("CPU-bound: workers = %d, want 8", op.workers)
	}
	// Again: capped at 4x Workers.
	op.adaptWorkers(ResourceReport{Workers: 12, ReadBlocked: 900 * time.Millisecond, Duration: time.Second})
	if op.workers != 16 {
		t.Errorf("capped: workers = %d, want 16", op.workers)
	}
	// I/O-bound report: shrink by one.
	op.adaptWorkers(ResourceReport{Workers: 16, ReadBlocked: 0, Duration: time.Second})
	if op.workers != 15 {
		t.Errorf("I/O-bound: workers = %d, want 15", op.workers)
	}
	// In between: unchanged.
	op.adaptWorkers(ResourceReport{Workers: 15, ReadBlocked: 100 * time.Millisecond, Duration: time.Second})
	if op.workers != 15 {
		t.Errorf("steady: workers = %d, want 15", op.workers)
	}
	// Never below one worker.
	op2 := New(env.store, env.table, Config{
		Workers: 1, AdaptiveWorkers: true,
	})
	op2.adaptWorkers(ResourceReport{Workers: 1, ReadBlocked: 0, Duration: time.Second})
	if op2.workers != 1 {
		t.Errorf("floor: workers = %d, want 1", op2.workers)
	}
	// Disabled: no change.
	op3 := New(env.store, env.table, Config{Workers: 4})
	op3.adaptWorkers(ResourceReport{Workers: 4, ReadBlocked: time.Second, Duration: time.Second})
	if op3.workers != 4 {
		t.Errorf("disabled: workers = %d, want 4", op3.workers)
	}
}

func TestAdaptiveWorkersGrowUnderCPUBound(t *testing.T) {
	// Engine bottleneck (slow deliver) makes READ block; across queries
	// the adaptive pool must grow toward the cap.
	env := newEnv(t, 1024, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 1, AdaptiveWorkers: true,
		ChunkLines: 64, CacheChunks: 2,
		TextBufferChunks: 4,
	})
	slowDeliver := func(bc *BinaryChunk) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	prev := op.Workers()
	grew := false
	for q := 0; q < 4; q++ {
		st, err := op.Run(Request{Columns: []int{0, 1, 2, 3}, Deliver: slowDeliver})
		if err != nil {
			t.Fatal(err)
		}
		if st.WorkersUsed != prev {
			t.Errorf("query %d used %d workers, pool said %d", q, st.WorkersUsed, prev)
		}
		cur := op.Workers()
		if cur > prev {
			grew = true
		}
		if cur < prev {
			t.Errorf("pool shrank under CPU-bound load: %d -> %d", prev, cur)
		}
		prev = cur
		// The cache fills with converted chunks; clear it so every query
		// re-exercises the pipeline.
		op.Cache().Clear()
	}
	if !grew {
		t.Error("adaptive pool never grew under sustained READ blocking")
	}
}

// TestAdaptiveWorkersConfigDefaults: the pool's bounds derive from Workers —
// sustained pressure either way stops at 4x Workers and at one.
func TestAdaptiveWorkersConfigDefaults(t *testing.T) {
	env := newEnv(t, 64, 2, nil)
	op := New(env.store, env.table, Config{Workers: 3, AdaptiveWorkers: true})
	for i := 0; i < 4; i++ {
		op.adaptWorkers(ResourceReport{Workers: op.workers, ReadBlocked: 900 * time.Millisecond, Duration: time.Second})
	}
	if op.workers != 12 {
		t.Errorf("CPU-bound pool settled at %d workers, want 12", op.workers)
	}
	for i := 0; i < 16; i++ {
		op.adaptWorkers(ResourceReport{Workers: op.workers, Duration: time.Second})
	}
	if op.workers != 1 {
		t.Errorf("I/O-bound pool settled at %d workers, want 1", op.workers)
	}
}

func TestConsumeBoundSignals(t *testing.T) {
	cases := []struct {
		rep  ResourceReport
		want bool
	}{
		// Producer stalled for half the run: consume-bound.
		{ResourceReport{ConsumeStall: 500 * time.Millisecond, Duration: time.Second}, true},
		// Mild stall below the threshold: not consume-bound.
		{ResourceReport{ConsumeStall: 100 * time.Millisecond, Duration: time.Second}, false},
		// Queue sitting near capacity: consume-bound even without stall time.
		{ResourceReport{Duration: time.Second, ConsumeQueueDepth: 7, ConsumeQueueCap: 8}, true},
		// Shallow queue: not consume-bound.
		{ResourceReport{Duration: time.Second, ConsumeQueueDepth: 2, ConsumeQueueCap: 8}, false},
		// No samples (zero cap): depth is meaningless.
		{ResourceReport{Duration: time.Second, ConsumeQueueDepth: 7, ConsumeQueueCap: 0}, false},
	}
	for _, c := range cases {
		if got := c.rep.ConsumeBound(); got != c.want {
			t.Errorf("ConsumeBound(%+v) = %v, want %v", c.rep, got, c.want)
		}
	}
}

func TestAdaptWorkersConsumeBoundShrinks(t *testing.T) {
	env := newEnv(t, 64, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 8, AdaptiveWorkers: true,
	})
	// Consume stall dominates: shrink by one even though READ was blocked
	// long enough that the CPU-bound rule alone would have doubled the pool.
	op.adaptWorkers(ResourceReport{
		Workers: 8, ReadBlocked: 900 * time.Millisecond, Duration: time.Second,
		ConsumeStall: 600 * time.Millisecond,
	})
	if op.workers != 7 {
		t.Errorf("consume-stall + CPU-bound: workers = %d, want 7 (shrink overrides grow)", op.workers)
	}
	// Deep consume queue alone also shrinks.
	op.adaptWorkers(ResourceReport{
		Workers: 7, Duration: time.Second,
		ConsumeQueueDepth: 6.5, ConsumeQueueCap: 8,
	})
	if op.workers != 6 {
		t.Errorf("deep queue: workers = %d, want 6", op.workers)
	}
	// Never below the floor.
	op2 := New(env.store, env.table, Config{Workers: 1, AdaptiveWorkers: true})
	op2.adaptWorkers(ResourceReport{
		Workers: 1, Duration: time.Second, ConsumeStall: time.Second,
	})
	if op2.workers != 1 {
		t.Errorf("floor: workers = %d, want 1", op2.workers)
	}
}
