package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scanraw/internal/cache"
	"scanraw/internal/engine"
)

// A traced run gives the per-layer metrics, in three parts. The layer table
// times every layer's public functions in process on fixed inputs, whatever
// the workload, so layerRun makes it once per invocation. A short live run of
// each workload gives what only a real daemon has (/metrics deltas, /proc,
// per-class latencies). The traced replay serves the workload's queries
// serially by hand under spans and turns their self times into the budget.
// End-to-end metrics never come from here.

// layerRun measures the layer table and the operator layer on ints16. The
// tracer it returns holds the by-hand replay of cold_sequence's queries (they
// run on the same dataset); runTraced adds the other workloads' replays to it.
func (h *harness) layerRun(ctx context.Context) (metrics, *tracer, error) {
	m := metrics{}
	ints := newDataset("ints16", h.sz, uint64(h.seed))
	ints.materialize()
	defer ints.release()
	if err := h.layerTable(ctx, m, ints); err != nil {
		return nil, nil, fmt.Errorf("layer table: %w", err)
	}
	tr := newTracer()
	if err := h.layerOperator(ctx, m, ints, tr); err != nil {
		return nil, nil, fmt.Errorf("operator layer: %w", err)
	}
	s1 := budgetOf(tr.spans, func(s span) bool { return s.Name == "replay.cold_sequence/S1" })
	m.set("scanraw.unattributed_share", s1["unattributed"])
	return m, tr, nil
}

// runTraced is the workload's own part of a traced run: the short live run
// and the budget of its queries replayed under tr.
func (h *harness) runTraced(ctx context.Context, w workloadDef, tr *tracer) (*result, error) {
	res, err := h.runLive(ctx, w, max(h.seconds/3, 2), false)
	if err != nil {
		return nil, err
	}
	if w.name != "cold_sequence" { // layerRun made that one
		if err := h.replayWorkload(ctx, w, tr); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", w.name, err)
		}
	}
	prefix := "replay." + w.name + "/"
	shares := budgetOf(tr.spans, func(s span) bool { return strings.HasPrefix(s.Name, prefix) })
	for _, layer := range budgetLayers {
		res.Metrics.set("budget."+layer+"_share", shares[layer])
	}
	printBudget(w.name, shares)
	return res, nil
}

// writeTrace stores every span of the invocation in benchmark/out/trace.json.
func (h *harness) writeTrace(tr *tracer) error {
	out := filepath.Join(h.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(out, "trace.json"))
}

// budgetLayers are the layers a replay calls into, in report order.
var budgetLayers = []string{"store", "kernel", "dbstore", "cache", "engine", "ola", "server", "unattributed"}

func printBudget(workload string, shares map[string]float64) {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if shares[layers[i]] != shares[layers[j]] {
			return shares[layers[i]] > shares[layers[j]]
		}
		return layers[i] < layers[j]
	})
	total := 0.0
	fmt.Printf("\ntime budget of %s's queries replayed serially (layer self time / replay wall):\n", workload)
	for _, l := range layers {
		fmt.Printf("  %-14s %6.1f%%\n", l, 100*shares[l])
		total += shares[l]
	}
	fmt.Printf("  %-14s %6.1f%%\n\n", "sum", 100*total)
}

// replayWorkload replays the queries of a workload other than cold_sequence
// by hand on that workload's own dataset.
func (h *harness) replayWorkload(ctx context.Context, w workloadDef, tr *tracer) error {
	ds := newDataset(w.dataset, h.sz, uint64(h.seed))
	ds.materialize()
	defer ds.release()
	p, err := h.newInproc(ds)
	if err != nil {
		return err
	}
	defer p.close()
	if err := p.registerChunks(); err != nil {
		return err
	}
	named := func(pl plan) plan { return pl.named(w.name) }

	switch w.name {
	case "sam_sequence":
		for _, pl := range sequencePlans(ds) {
			if _, err := replay(tr, p, named(pl), nil); err != nil {
				return err
			}
		}
	case "warm_mix":
		// One statement per class, served from database pages; the pages of
		// the columns they read are loaded first, untraced.
		pool := warmMixPool(*ds.csv, h.seed)
		var plans []plan
		needed := map[int]bool{}
		for _, class := range mixClasses {
			q := pool[class][0]
			parsed, err := engine.ParseSQL(q.sql, ds.schema())
			if err != nil {
				return err
			}
			pl := plan{name: class, q: q, fromDB: parsed.RequiredColumns(), limit: parsed.Limit}
			if len(parsed.OrderBy) > 0 {
				pl.limit = 0 // top-k sees every chunk the bound cannot prune
			}
			for _, c := range pl.fromDB {
				needed[c] = true
			}
			plans = append(plans, named(pl))
		}
		var cols []int
		for c := range needed {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		for _, tc := range p.chunks {
			if err := ctx.Err(); err != nil {
				return err
			}
			bc, err := convertChunk(ds.schema(), cols, ',', tc)
			if err != nil {
				return err
			}
			err = p.st.WriteChunkColumns(p.table, bc, cols)
			bc.RecycleColumns()
			if err != nil {
				return err
			}
		}
		for _, pl := range plans {
			if _, err := replay(tr, p, pl, nil); err != nil {
				return err
			}
		}
	case "stream_rows":
		// Every chunk cache-resident, as after the wide set-up query.
		q := streamPool(*ds.csv, h.seed)[0]
		resident := cache.New(max(cacheChunks, len(p.chunks)))
		all := colRange(0, ds.csv.Cols)
		for _, tc := range p.chunks {
			bc, err := convertChunk(ds.schema(), all, ',', tc)
			if err != nil {
				return err
			}
			resident.Put(bc, true)
		}
		if _, err := replay(tr, p, named(plan{name: "stream", q: q, stream: true}), resident); err != nil {
			return err
		}
	}
	return nil
}
