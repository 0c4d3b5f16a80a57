package ola

import (
	"sync"
	"sync/atomic"

	"scanraw/internal/chunk"
	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
)

// Runner drives one sampled aggregate query. It is both the scan's
// consumer (ConsumeCounted, on the scan's delivering goroutine) and its
// steering (on the scan's driver): Order is the scanraw Request.Order
// callback that installs the seeded permutation, and Satisfied is the
// demand-termination signal that fires once the bounds converge.
//
// Internally the Runner keeps two parallel aggregations. Every chunk is
// merged into a root engine.Partial — so if the scan runs to the end the
// result is the exact engine answer, byte-identical to a non-sampled
// run. Independently, each chunk's per-group aggregate snapshot passes
// through a scanraw.Frontier keyed by sample position and reaches the
// Estimator strictly in sample order, because only a prefix of the
// permutation is a uniform sample. Sampled requests must not carry a Skip
// filter: a skipped chunk would leave a permanent hole in the sample order.
type Runner struct {
	q   *engine.Query
	sch *schema.Schema

	mu      sync.Mutex
	est     *Estimator
	root    *engine.Partial
	last    Snapshot
	pos     []int                                // chunk ID -> position in the sample order
	front   *scanraw.Frontier[[]engine.GroupAgg] // snapshots by sample position
	seen    map[int]bool                         // chunk IDs consumed (duplicate guard)
	total   int
	ordered bool // Order was invoked

	converged  atomic.Bool
	onProgress func(Snapshot)
}

// NewRunner builds a runner for q over sch. onProgress, when non-nil, is
// called with each snapshot that advances the sample frontier; it runs
// on a consume goroutine without the runner's lock held, serialized with
// other progress calls only insofar as frontier advances are.
func NewRunner(q *engine.Query, sch *schema.Schema, cfg Config, onProgress func(Snapshot)) (*Runner, error) {
	est, err := NewEstimator(q, cfg)
	if err != nil {
		return nil, err
	}
	root, err := engine.NewPartial(q, sch)
	if err != nil {
		return nil, err
	}
	return &Runner{
		q:          q,
		sch:        sch,
		est:        est,
		root:       root,
		front:      scanraw.NewFrontier[[]engine.GroupAgg](0),
		seen:       map[int]bool{},
		onProgress: onProgress,
	}, nil
}

// Order is the scanraw Request.Order callback: given the discovered
// chunk count it fixes the population size and returns the seeded visit
// permutation.
func (r *Runner) Order(seed int64) func(n int) []int {
	return func(n int) []int {
		perm := Permutation(n, seed)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.ordered = true
		r.total = n
		r.est.SetTotalChunks(n)
		r.pos = make([]int, n)
		for i, id := range perm {
			r.pos[id] = i
		}
		return perm
	}
}

// Satisfied reports whether the bounds have converged — the scan's
// demand-termination signal. Monotonic: latched by the estimator.
func (r *Runner) Satisfied() bool { return r.converged.Load() }

// ConsumeCounted aggregates one chunk, merges it into the exact root,
// and feeds the estimator through the sample-order reorder window. It
// locks against Order and the snapshot readers, which run on other
// goroutines.
func (r *Runner) ConsumeCounted(bc *chunk.BinaryChunk) (int, error) {
	// Aggregate the chunk outside the lock: a fresh Partial isolates its
	// per-group contribution, which the snapshot captures before the
	// merge consumes the group map.
	p, err := engine.NewPartial(r.q, r.sch)
	if err != nil {
		return 0, err
	}
	matched, err := p.ConsumeCounted(bc)
	if err != nil {
		return 0, err
	}
	gas := p.GroupAggs()

	r.mu.Lock()
	if r.seen[bc.ID] {
		// Defensive: the scan delivers each chunk at most once, but a
		// duplicate here would double-count both paths.
		r.mu.Unlock()
		return matched, nil
	}
	r.seen[bc.ID] = true
	if err := r.root.Merge(p); err != nil {
		r.mu.Unlock()
		return 0, err
	}
	if !r.ordered || bc.ID >= len(r.pos) {
		// No sample order installed (plain scan reusing the runner as an
		// executor): the exact path above is all there is.
		r.mu.Unlock()
		return matched, nil
	}
	before := r.front.Next()
	r.front.Put(r.pos[bc.ID], gas, func(_ int, g []engine.GroupAgg) { r.est.Observe(g) })
	if r.front.Next() == before {
		r.mu.Unlock()
		return matched, nil
	}
	snap := r.est.Snapshot()
	r.last = snap
	if snap.Converged {
		r.converged.Store(true)
	}
	cb := r.onProgress
	r.mu.Unlock()
	if cb != nil {
		cb(snap)
	}
	return matched, nil
}

// LastSnapshot returns the most recent frontier snapshot (zero value if
// nothing was observed yet).
func (r *Runner) LastSnapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Exact reports whether Result will return the exact engine answer: the
// whole file was observed (or no sample order was ever installed, in
// which case the root saw every delivered chunk).
func (r *Runner) Exact() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.ordered || r.front.Next() == r.total
}

// Result returns the exact engine result when the scan covered the whole
// file, and the estimator's current row set otherwise. The exact path
// goes through the same Partial merge and sort as a non-sampled query,
// so an error=0 run is byte-identical to the plain executor's answer.
func (r *Runner) Result() (*engine.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ordered || r.front.Next() == r.total {
		return r.root.Result()
	}
	snap := r.est.Snapshot()
	r.last = snap
	return estimateResult(r.q, snap), nil
}
