package server

import (
	"math"
	"sync"

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
	// strictly smaller bound earns another line. mu also orders the lines:
	// progress runs on several consume workers at once.
	mu      sync.Mutex
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if !(s.MaxRel < st.lastRel) {
		return
	}
	st.lastRel = s.MaxRel
	rows := make([][]any, len(s.Groups))
	bounds := make([][]any, len(s.Groups))
	for i, g := range s.Groups {
		rows[i] = sanitizedRow(g.Values)
		bs := make([]any, len(g.Bounds))
		for j, b := range g.Bounds {
			bs[j] = jsonFloat(b)
		}
		bounds[i] = bs
	}
	st.nd.Line(estimateLine(rows, bounds, s, s.MaxRel, false))
}

// estimateLine is one estimate line. NaN/Inf (undefined estimates,
// unbounded error) encode as null — encoding/json cannot represent them
// and would silently drop the whole line.
func estimateLine(rows, bounds [][]any, s ola.Snapshot, maxRel float64, final bool) map[string]any {
	return map[string]any{
		"rows":           rows,
		"bounds":         bounds,
		"chunks_sampled": s.Chunks,
		"chunks_total":   s.Total,
		"max_rel_error":  jsonFloat(maxRel),
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
	rows := make([][]any, len(res.Rows))
	bounds := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = sanitizedRow(row)
		bs := make([]any, len(row))
		for j := range bs {
			switch {
			case exact:
				bs[j] = 0.0 // a full scan's answer has no uncertainty
			case i < len(last.Groups) && j < len(last.Groups[i].Bounds):
				bs[j] = jsonFloat(last.Groups[i].Bounds[j])
			default:
				bs[j] = 0.0
			}
		}
		bounds[i] = bs
	}
	maxRel := last.MaxRel
	if exact {
		maxRel = 0
	}
	st.nd.Line(estimateLine(rows, bounds, last, maxRel, true))
	return &engine.Result{Cols: res.Cols}, nil
}

// jsonFloat maps a float into a JSON-encodable value: NaN and ±Inf
// become null.
func jsonFloat(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return f
}

// sanitizedRow is queryapi.JSONRow with NaN/Inf floats nulled (estimate rows can
// hold them before enough data arrives).
func sanitizedRow(row []engine.Value) []any {
	out := queryapi.JSONRow(row)
	for i, v := range row {
		if v.Typ == schema.Float64 {
			out[i] = jsonFloat(v.Float)
		}
	}
	return out
}
