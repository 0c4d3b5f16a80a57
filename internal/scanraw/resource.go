package scanraw

import (
	"sync/atomic"
	"time"
)

// Resource management (paper §3.3): "The scheduler is in the best position
// to monitor resource utilization since it manages the allocation of worker
// threads from the pool and inspects buffer utilization. These data are
// relayed to the database resource manager." The operator measures the
// signal and reports it per run; it does not act on it itself. CPU-bound:
// "if the scheduler assigns all the worker threads in the pool for task
// execution but the text chunks buffer is still full — SCANRAW is
// CPU-bound." RunStats.ReadBlocked is the time the READ thread spent
// blocked on a full buffer.

// blockedTimer accumulates READ-blocked time for one run.
type blockedTimer struct {
	ns atomic.Int64
}

func (b *blockedTimer) add(d time.Duration) {
	if d > 0 {
		b.ns.Add(int64(d))
	}
}

func (b *blockedTimer) total() time.Duration { return time.Duration(b.ns.Load()) }
