package server

import (
	"encoding/json"
	"math"

	"scanraw/internal/engine"
	"scanraw/internal/ola"
	"scanraw/internal/queryapi"
	"scanraw/internal/schema"
)

// olaStreamer serves an online-aggregation query as NDJSON: a columns
// header, a sequence of converging estimate lines, a final line, and the
// stats trailer. Estimate lines are emitted only when the worst relative
// bound strictly shrinks, so the stream's reported error is monotone
// even though individual snapshots can wiggle; every line flushes
// immediately — the whole point is that the client sees the estimate
// converge live.
type olaStreamer struct {
	nd     *queryapi.NDJSON
	runner *ola.Runner

	// lastRel is the MaxRel of the last emitted progress line; only a
	// strictly smaller bound earns another line. progress runs on the
	// scan's delivering goroutine, one chunk at a time.
	lastRel float64
}

func newOLAStreamer(q *engine.Query, sch *schema.Schema, cfg ola.Config, nd *queryapi.NDJSON) (*olaStreamer, error) {
	st := &olaStreamer{nd: nd, lastRel: math.Inf(1)}
	r, err := ola.NewRunner(q, sch, cfg, st.progress)
	if err != nil {
		return nil, err
	}
	st.runner = r
	return st, nil
}

// progress is the runner's frontier callback.
func (st *olaStreamer) progress(s ola.Snapshot) {
	if !(s.MaxRel < st.lastRel) {
		return
	}
	st.lastRel = s.MaxRel
	rows := make([][]engine.Value, len(s.Groups))
	bounds := make([][]queryapi.Float, len(s.Groups))
	for i, g := range s.Groups {
		rows[i] = g.Values
		bounds[i] = make([]queryapi.Float, len(g.Bounds))
		for j, b := range g.Bounds {
			bounds[i][j] = queryapi.Float(b)
		}
	}
	st.nd.Line(estimateLine(rows, bounds, s, s.MaxRel, false))
}

// estimateLine is one estimate line. Its rows go through the row encoder
// and its bounds by the same rule, so NaN/Inf (undefined estimates,
// unbounded error) are null.
func estimateLine(rows [][]engine.Value, bounds [][]queryapi.Float, s ola.Snapshot, maxRel float64, final bool) map[string]any {
	return map[string]any{
		"rows":           json.RawMessage(queryapi.AppendRows(nil, rows)),
		"bounds":         bounds,
		"chunks_sampled": s.Chunks,
		"chunks_total":   s.Total,
		"max_rel_error":  queryapi.Float(maxRel),
		"final":          final,
	}
}

// finish finalizes the stream: the definitive line — the exact engine
// answer when the scan covered the whole file, the last estimate
// otherwise — goes out with "final": true. The returned result carries
// only the columns; rows are already on the wire.
func (st *olaStreamer) finish() (*engine.Result, error) {
	res, err := st.runner.Result()
	if err != nil {
		return nil, err
	}
	last := st.runner.LastSnapshot()
	exact := st.runner.Exact()
	bounds := make([][]queryapi.Float, len(res.Rows))
	for i, row := range res.Rows {
		// Zero unless an estimate bounds the cell: a full scan's answer has
		// no uncertainty.
		bounds[i] = make([]queryapi.Float, len(row))
		if !exact && i < len(last.Groups) {
			for j, b := range last.Groups[i].Bounds {
				if j < len(row) {
					bounds[i][j] = queryapi.Float(b)
				}
			}
		}
	}
	maxRel := last.MaxRel
	if exact {
		maxRel = 0
	}
	st.nd.Line(estimateLine(res.Rows, bounds, last, maxRel, true))
	return &engine.Result{Cols: res.Cols}, nil
}
