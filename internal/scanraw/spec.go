package scanraw

import (
	"fmt"
	"sort"

	"scanraw/internal/dbstore"
	"scanraw/internal/kernel"
)

// Speculation policy and partial-width planning. Both follow the paper's
// sequel ("Workload-Driven Vertical Partitioning over Raw Data"): converted
// data lives as per-column pages, a query is served from its loaded columns
// plus conversion of only the missing ones, and idle disk time goes to the
// cached chunk whose unloaded columns the workload values most.

// SpecPolicy selects what speculative loading writes when the disk is idle.
type SpecPolicy uint8

const (
	// SpecScan — the zero value — writes the oldest unloaded cached chunk
	// at full width: the paper's original scan-order speculation (§4).
	SpecScan SpecPolicy = iota
	// SpecPayoff scores every cached chunk by predicted benefit — the summed
	// workload access weight of its unloaded columns — and per disk-idle
	// quantum writes the positively weighted unloaded columns of the chunk
	// that scores highest, as one segment. Equal scores keep scan order, and
	// a cold workload falls back to it.
	SpecPayoff
)

func (p SpecPolicy) String() string {
	switch p {
	case SpecScan:
		return "scan"
	case SpecPayoff:
		return "payoff"
	default:
		return fmt.Sprintf("SpecPolicy(%d)", uint8(p))
	}
}

// ParseSpecPolicy parses a -spec-policy flag value.
func ParseSpecPolicy(s string) (SpecPolicy, error) {
	switch s {
	case "scan":
		return SpecScan, nil
	case "payoff":
		return SpecPayoff, nil
	}
	return 0, fmt.Errorf("scanraw: unknown speculation policy %q (want scan or payoff)", s)
}

// planFor splits a chunk's service between its pages and raw conversion,
// from its catalog metadata: the loaded requested columns are read from
// pages, the missing ones converted. A chunk with nothing loaded converts the
// request, one with everything loaded converts nothing. Kernels are selected
// once per convert set and kept for the run.
func (r *run) planFor(meta *dbstore.ChunkMeta) (task, error) {
	var pageCols, missing []int
	for _, c := range r.req.Columns {
		if c < len(meta.Loaded) && meta.Loaded[c] {
			pageCols = append(pageCols, c)
		} else {
			missing = append(missing, c)
		}
	}
	switch {
	case missing == nil:
		return task{src: srcDB, pageCols: pageCols}, nil
	case pageCols == nil:
		return task{src: srcRaw, kern: r.kern}, nil
	}
	key := dbstore.EncodeColGroupKey(missing)
	kern, ok := r.kerns[key]
	if !ok {
		var err error
		if kern, err = kernel.For(r.op.table.Schema(), missing, r.op.cfg.Delim); err != nil {
			return task{}, err
		}
		r.kerns[key] = kern
	}
	return task{src: srcPartial, kern: kern, pageCols: pageCols}, nil
}

// specStep performs one quantum of speculative loading — one write of one
// cached chunk under a pin, encoded into the batch: under SpecPayoff the
// best-ranked chunk's wanted columns, otherwise (or as the cold-workload
// fallback) the oldest unloaded cached chunk at full width. It reports
// whether a chunk was picked; the caller loops while the disk stays idle.
func (r *run) specStep() (bool, error) {
	o := r.op
	var bc *BinaryChunk
	var cols []int
	if o.cfg.Speculation == SpecPayoff {
		var err error
		if bc, cols, err = r.payoffPick(); err != nil {
			return false, err
		}
	}
	ctr, n := &r.groupWrites, int64(len(cols))
	if bc == nil {
		if bc = o.cache.AcquireOldestUnloaded(); bc == nil {
			return false, nil
		}
		ctr, n = &r.written, 1
	}
	_, err := o.writeCached(bc, cols, ctr, n)
	r.gate.broadcast()
	if err != nil {
		return false, err
	}
	return true, nil
}

// specCand is one rankable speculation candidate: a cached chunk, its
// unloaded columns the workload gives weight to, and their summed weight.
type specCand struct {
	id    int
	cols  []int
	score float64
}

// payoffPick ranks the cached chunks by the summed workload weight of their
// unloaded, positively weighted columns and returns the best one, pinned,
// with those of its wanted columns the cached copy holds — written as one
// segment of the batch. Columns nobody asks for are never picked. A nil
// chunk hands the quantum to the scan-order fallback: the workload is cold
// (nil/mismatched/all-zero weights) or nothing the workload wants is still
// unloaded in a cached copy that holds it.
func (r *run) payoffPick() (bc *BinaryChunk, cols []int, err error) {
	o := r.op
	wf := o.cfg.ColumnWeights
	if wf == nil {
		return nil, nil, nil
	}
	weights := wf()
	if len(weights) != o.table.Schema().NumColumns() {
		return nil, nil, nil
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return nil, nil, nil
	}
	var cands []specCand
	for _, id := range o.cache.UnloadedIDs() {
		meta, ok := o.table.Chunk(id)
		if !ok {
			continue
		}
		cand := specCand{id: id}
		for c, w := range weights {
			if w <= 0 || c < len(meta.Loaded) && meta.Loaded[c] {
				continue
			}
			cand.cols = append(cand.cols, c)
			cand.score += w
		}
		if len(cand.cols) > 0 {
			cands = append(cands, cand)
		}
	}
	// Stable sort keeps scan order among equal scores, so the policy
	// degrades gracefully toward the paper's behaviour.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	for _, c := range cands {
		if bc = o.cache.Acquire(c.id); bc == nil {
			continue
		}
		// A column the cached copy lacks (read back narrow, or converted
		// for a narrower query) is not writable from here.
		for _, col := range c.cols {
			if bc.Has(col) {
				cols = append(cols, col)
			}
		}
		if len(cols) > 0 {
			return bc, cols, nil
		}
		if err = o.cache.Unpin(c.id); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, nil
}
