package scanraw

import (
	"fmt"
	"sort"

	"scanraw/internal/dbstore"
	"scanraw/internal/kernel"
)

// Speculation policy and partial-width planning. Both follow the paper's
// sequel ("Workload-Driven Vertical Partitioning over Raw Data"): converted
// data lives as column-group pages, a query is served from any mix of
// loaded groups plus conversion of only the missing ones, and idle disk
// time goes to the cached chunk whose unloaded column groups the workload
// values most.

// SpecPolicy selects what the speculative scheduler loads when the disk is
// idle.
type SpecPolicy uint8

const (
	// SpecScan — the zero value — writes the oldest unloaded cached chunk
	// at full width: the paper's original scan-order speculation (§4).
	SpecScan SpecPolicy = iota
	// SpecPayoff scores every (cached chunk, column group) pair by predicted
	// benefit — workload access weight × unloaded width × chunk selectivity
	// — and per disk-idle quantum writes the positively-scored groups of the
	// chunk whose scores sum highest, as one segment, falling back to scan
	// order while the workload is cold.
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
// pages, the missing ones converted, rounded up to group boundaries. A chunk
// with nothing loaded converts the run-wide closure, one with everything
// loaded converts nothing. Kernels are selected once per convert set and
// kept for the run.
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
	var convert []int
	for _, c := range r.op.store.GroupClosure(r.op.table, missing) {
		// The closure can pull in loaded columns of partially-loaded groups
		// (legacy pages, width changes); their pages exist, so skip them.
		if c < len(meta.Loaded) && meta.Loaded[c] {
			continue
		}
		convert = append(convert, c)
	}
	key := dbstore.EncodeColGroupKey(convert)
	kern, ok := r.kerns[key]
	if !ok {
		var err error
		if kern, err = kernel.For(r.op.table.Schema(), convert, r.op.cfg.Delim); err != nil {
			return task{}, err
		}
		r.kerns[key] = kern
	}
	return task{src: srcPartial, kern: kern, pageCols: pageCols}, nil
}

// specStep performs one quantum of speculative loading — one write of one
// cached chunk under a pin, encoded into the batch: under SpecPayoff the
// best-ranked chunk's wanted column groups, otherwise (or as the
// cold-workload fallback) the oldest unloaded cached chunk at full width. It
// reports whether a chunk was picked; the caller loops while the disk stays
// idle.
func (r *run) specStep() (bool, error) {
	o := r.op
	var bc *BinaryChunk
	var cols []int
	ngroups := 0
	if o.cfg.Speculation == SpecPayoff {
		var err error
		if bc, cols, ngroups, err = r.payoffPick(); err != nil {
			return false, err
		}
	}
	if bc == nil {
		if bc = o.cache.AcquireOldestUnloaded(); bc == nil {
			return false, nil
		}
	}
	ctr, n := &r.written, int64(1)
	if ngroups > 0 {
		ctr, n = &r.groupWrites, int64(ngroups)
	}
	_, err := o.writeCached(bc, cols, ctr, n)
	r.gate.broadcast()
	if err != nil {
		return false, err
	}
	return true, nil
}

// specCand is one rankable speculation candidate: a cached chunk with the
// unloaded columns of each partition group the workload gives weight to, and
// the sum of those groups' scores.
type specCand struct {
	id     int
	groups [][]int
	score  float64
}

// payoffPick ranks the cached chunks by what the workload would gain from
// their unloaded column groups and returns the best one, pinned, with the
// columns to write — every group with a positive weight, as one segment of
// the batch however many groups it carries.
// Columns nobody asks for are never picked. A nil chunk hands the quantum to
// the scan-order fallback: the workload is cold (nil/mismatched/all-zero
// weights) or nothing the workload wants is still unloaded.
func (r *run) payoffPick() (bc *BinaryChunk, cols []int, ngroups int, err error) {
	o := r.op
	wf := o.cfg.ColumnWeights
	if wf == nil {
		return nil, nil, 0, nil
	}
	weights := wf()
	n := o.table.Schema().NumColumns()
	if len(weights) != n {
		return nil, nil, 0, nil
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return nil, nil, 0, nil
	}
	groups := dbstore.GroupPartition(n, o.store.GroupWidth())
	var cands []specCand
	for _, id := range o.cache.UnloadedIDs() {
		meta, ok := o.table.Chunk(id)
		if !ok {
			continue
		}
		cand := specCand{id: id}
		for _, g := range groups {
			var unloaded []int
			w := 0.0
			for _, c := range g {
				if c < len(meta.Loaded) && meta.Loaded[c] {
					continue
				}
				unloaded = append(unloaded, c)
				w += weights[c]
			}
			if len(unloaded) == 0 || w <= 0 {
				continue
			}
			cand.groups = append(cand.groups, unloaded)
			cand.score += w * float64(len(unloaded)) * chunkSelectivity(meta, unloaded)
		}
		if len(cand.groups) > 0 {
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
		// A group the cached copy lacks part of (read back narrow, or
		// converted for a narrower query) is not writable from here.
		for _, g := range c.groups {
			if bc.HasAll(g) {
				cols = append(cols, g...)
				ngroups++
			}
		}
		if ngroups > 0 {
			return bc, cols, ngroups, nil
		}
		if err = o.cache.Unpin(c.id); err != nil {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, nil
}

// chunkSelectivity estimates how useful a chunk's columns are to selective
// queries: the average of min(1, Distinct/Rows) over the columns with valid
// statistics, defaulting to 1 (maximally useful) when nothing is known —
// statistics should focus speculation, never veto it.
func chunkSelectivity(meta *dbstore.ChunkMeta, cols []int) float64 {
	sum, n := 0.0, 0
	for _, c := range cols {
		if c >= len(meta.Stats) {
			continue
		}
		st := meta.Stats[c]
		if !st.Valid || st.Rows <= 0 {
			continue
		}
		f := float64(st.Distinct) / float64(st.Rows)
		if f > 1 {
			f = 1
		}
		sum += f
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
