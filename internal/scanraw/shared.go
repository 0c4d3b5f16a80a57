package scanraw

import (
	"context"
	"fmt"
	"sort"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
)

// RunSharedContext executes several requests over a single scan of the raw file —
// the multi-query processing the paper names as future work (§7). The
// operator converts the union of the requested columns once; every chunk
// is then delivered to each request, except requests whose Skip filter
// excludes it. Chunks are read or converted only once regardless of how
// many queries consume them, so N concurrent queries cost roughly one scan
// plus N engine passes instead of N scans.
//
// The returned stats describe the shared scan; the per-request slice gives
// each query's delivered/skipped chunk counts.
//
// When ctx is cancelled the underlying scan stops at the next chunk boundary
// and every request sees the context error. Callers serving independent
// clients typically pass a context that cancels only once all of them have
// gone away.
func (o *Operator) RunSharedContext(ctx context.Context, reqs []Request) (RunStats, []SharedStats, error) {
	if len(reqs) == 0 {
		return RunStats{}, nil, fmt.Errorf("scanraw: a shared scan needs at least one request")
	}
	ncols := o.table.Schema().NumColumns()
	for i, req := range reqs {
		if err := validateRequest(req, ncols); err != nil {
			return RunStats{}, nil, fmt.Errorf("request %d: %w", i, err)
		}
		if req.Order != nil && len(reqs) > 1 {
			// A sampled scan's visit order is its statistical contract;
			// sharing it with members that expect file order (or another
			// sample) would corrupt both. The server dispatches sampled
			// queries solo, so this is a programming-error guard.
			return RunStats{}, nil, fmt.Errorf("request %d: sampled (ordered) scans cannot share a scan", i)
		}
	}
	union := unionColumns(reqs)

	// The combined Deliver runs on this goroutine, one chunk at a time, and
	// calls each member's Deliver from it; it counts what each member took
	// and what its own filter excluded. The combined Skip runs on the scan's
	// driver and counts, apart, the chunks excluded for every member.
	delivered := make([]int, len(reqs))
	skipped := make([]int, len(reqs))
	scanSkipped := make([]int, len(reqs))

	combined := Request{
		Columns: union,
		// The scan covers the union of the members' chunk ranges; members
		// with narrower ranges filter per delivery below. Unbounded members
		// keep the whole file in play.
		Range: enclosingRange(reqs),
		// A chunk is skipped at the scan level only when every request
		// would skip it; requests without a filter always need the chunk.
		// A member whose range excludes the chunk never wants it, so it
		// does not block the skip, nor is it credited with one. The scan
		// never revisits a chunk it skipped, so each is credited once.
		Skip: func(meta *dbstore.ChunkMeta) bool {
			for _, req := range reqs {
				if !req.Range.Contains(meta.ID) {
					continue
				}
				if req.Skip == nil || !req.Skip(meta) {
					return false
				}
			}
			for i := range reqs {
				if reqs[i].Range.Contains(meta.ID) {
					scanSkipped[i]++
				}
			}
			return true
		},
		Deliver: func(bc *BinaryChunk) error {
			// The catalog entry is copied out only for a member that has a
			// filter to consult.
			var meta *dbstore.ChunkMeta
			looked, haveMeta := false, false
			for i := range reqs {
				if !reqs[i].Range.Contains(bc.ID) {
					// Outside this member's universe: not delivered, not
					// counted as skipped.
					continue
				}
				if reqs[i].Satisfied != nil && reqs[i].Satisfied() {
					// This member's result is already final; the chunk is
					// still scanned for the members that need it.
					continue
				}
				if reqs[i].Skip != nil {
					if !looked {
						meta, haveMeta = o.table.Chunk(bc.ID)
						looked = true
					}
					if haveMeta && reqs[i].Skip(meta) {
						skipped[i]++
						continue
					}
				}
				if err := reqs[i].Deliver(bc); err != nil {
					return fmt.Errorf("request %d: %w", i, err)
				}
				delivered[i]++
			}
			return nil
		},
	}
	// The shared scan terminates early only when EVERY member is provably
	// satisfied; a single member without a termination signal keeps the scan
	// running to end-of-file (its combined Satisfied stays nil).
	if s := combinedSatisfied(reqs); s != nil {
		combined.Satisfied = s
	}
	if len(reqs) == 1 {
		// A solo member's visit order passes straight through (multi-member
		// batches with an order were rejected above).
		combined.Order = reqs[0].Order
	}
	st, err := o.RunContext(ctx, combined)
	per := make([]SharedStats, len(reqs))
	for i := range per {
		per[i] = SharedStats{
			DeliveredChunks: delivered[i],
			SkippedChunks:   skipped[i] + scanSkipped[i],
		}
	}
	return st, per, err
}

// SharedStats is the per-request accounting of a shared scan.
type SharedStats struct {
	DeliveredChunks int
	SkippedChunks   int
}

// Add folds another request's accounting into s.
func (s *SharedStats) Add(o SharedStats) {
	s.DeliveredChunks += o.DeliveredChunks
	s.SkippedChunks += o.SkippedChunks
}

// combinedSatisfied builds the shared scan's termination signal: the AND of
// every member's Satisfied. It returns nil — no early termination — unless
// every member carries a signal, because a member scanning to end-of-file
// needs every remaining chunk regardless of the others.
func combinedSatisfied(reqs []Request) func() bool {
	for _, req := range reqs {
		if req.Satisfied == nil {
			return nil
		}
	}
	return func() bool {
		for _, req := range reqs {
			if !req.Satisfied() {
				return false
			}
		}
		return true
	}
}

// enclosingRange returns the smallest chunk range covering every member's
// range, or nil (whole file) when any member is unrestricted.
func enclosingRange(reqs []Request) *ChunkRange {
	lo := -1
	hi := 0 // 0 = not yet set; -1 = unbounded above
	for _, req := range reqs {
		if req.Range == nil {
			return nil
		}
		if lo < 0 || req.Range.Lo < lo {
			lo = req.Range.Lo
		}
		switch {
		case hi == -1:
			// Already unbounded above.
		case req.Range.Hi <= 0:
			hi = -1
		case req.Range.Hi > hi:
			hi = req.Range.Hi
		}
	}
	if lo < 0 {
		return nil
	}
	if hi < 0 {
		hi = 0
	}
	return &ChunkRange{Lo: lo, Hi: hi}
}

// unionColumns returns the sorted union of every request's column set.
func unionColumns(reqs []Request) []int {
	seen := map[int]bool{}
	var out []int
	for _, req := range reqs {
		for _, c := range req.Columns {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ExecuteQueries runs several bound queries against the operator in one
// shared scan and returns their result sets.
func ExecuteQueries(op *Operator, qs []*engine.Query) ([]*engine.Result, RunStats, error) {
	return ExecuteQueriesContext(context.Background(), op, qs)
}

// ExecuteQueriesContext is ExecuteQueries with cancellation.
func ExecuteQueriesContext(ctx context.Context, op *Operator, qs []*engine.Query) ([]*engine.Result, RunStats, error) {
	if len(qs) == 0 {
		return nil, RunStats{}, fmt.Errorf("scanraw: no queries")
	}
	sch := op.Table().Schema()
	executors := make([]*engine.Executor, len(qs))
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		ex, err := engine.NewExecutor(q, sch)
		if err != nil {
			return nil, RunStats{}, fmt.Errorf("query %d: %w", i, err)
		}
		executors[i] = ex
		reqs[i] = Member{Query: q, Consumer: ex}.Request(ctx)
	}
	st, _, err := op.RunSharedContext(ctx, reqs)
	if err != nil {
		return nil, st, err
	}
	results := make([]*engine.Result, len(qs))
	for i, ex := range executors {
		res, err := ex.Result()
		if err != nil {
			return nil, st, fmt.Errorf("query %d: %w", i, err)
		}
		results[i] = res
	}
	return results, st, nil
}
