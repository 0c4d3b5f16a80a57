package ola

import (
	"fmt"
	"math"
	"sort"

	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// Config tunes a sampled query's stop rule.
type Config struct {
	// Confidence is the coverage level of the reported intervals, in
	// (0, 1). Zero means DefaultConfidence.
	Confidence float64
	// Tolerance is the target relative half-width: the scan may stop
	// once every bound satisfies half/|estimate| <= Tolerance. Zero (or
	// negative) disables early termination — the scan runs to the end
	// and the result is exact.
	Tolerance float64
}

const (
	// DefaultConfidence is the Confidence a zero Config uses.
	DefaultConfidence = 0.95
	// DefaultMinChunks is the floor below which convergence is never
	// declared, guarding against a lucky low-variance prefix.
	DefaultMinChunks = 16
)

func (c Config) withDefaults() Config {
	if c.Confidence == 0 {
		c.Confidence = DefaultConfidence
	}
	return c
}

// Eligible reports whether q's result can be estimated from a chunk
// sample. COUNT, SUM and AVG (grouped or not) admit unbiased estimators
// with CLT bounds; MIN/MAX are extreme-value statistics a uniform sample
// cannot bound, and HAVING/ORDER BY/LIMIT filter or reorder rows based on
// values that are still estimates.
func Eligible(q *engine.Query) error {
	if q == nil || !q.IsAggregate() {
		return fmt.Errorf("ola: only aggregate queries have estimable results")
	}
	if len(q.Having) > 0 {
		return fmt.Errorf("ola: HAVING filters on values that are still estimates")
	}
	if len(q.OrderBy) > 0 || q.Limit > 0 {
		return fmt.Errorf("ola: ORDER BY/LIMIT are not supported on estimated results")
	}
	for _, it := range q.Items {
		switch it.Agg {
		case engine.AggNone, engine.AggCount, engine.AggSum, engine.AggAvg:
		default:
			return fmt.Errorf("ola: %s is an extreme-value statistic; a uniform sample cannot bound it", it.Agg)
		}
	}
	return nil
}

// cell accumulates the running moments of one aggregate in one group.
// u is the chunk's contribution to the numerator (per-chunk count or
// sum); v is the denominator for ratio estimators (AVG's per-chunk
// count). All five sums update in O(1) per observed chunk.
type cell struct {
	sumU, sumUU float64
	sumV, sumVV float64
	sumUV       float64
}

type groupAcc struct {
	keys  []engine.Value
	cells []cell
}

// Estimator maintains converging estimates with confidence bounds for
// one aggregate query, fed per-chunk aggregate snapshots in sample
// order. It is not safe for concurrent use; Runner serializes access.
type Estimator struct {
	q      *engine.Query
	cfg    Config
	z      float64 // normal quantile for cfg.Confidence
	keyIdx map[string]int

	total     int // N: chunks in the file; 0 until SetTotalChunks
	n         int // chunks observed so far
	groups    map[string]*groupAcc
	converged bool // latched: once true, stays true
}

// NewEstimator builds an estimator for q, which must be Eligible.
func NewEstimator(q *engine.Query, cfg Config) (*Estimator, error) {
	if err := Eligible(q); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		return nil, fmt.Errorf("ola: confidence %v outside (0, 1)", cfg.Confidence)
	}
	e := &Estimator{
		q:      q,
		cfg:    cfg,
		z:      math.Sqrt2 * math.Erfinv(cfg.Confidence),
		keyIdx: map[string]int{},
		groups: map[string]*groupAcc{},
	}
	for i, g := range q.GroupBy {
		e.keyIdx[g.String()] = i
	}
	if len(q.GroupBy) == 0 {
		// Scalar aggregates always produce exactly one output row, even
		// when no chunk matches; pre-create it so zero-match samples
		// still estimate (COUNT 0 with a shrinking bound).
		e.groups[""] = &groupAcc{cells: make([]cell, len(q.Items))}
	}
	return e, nil
}

// SetTotalChunks fixes N, the population size. Must be called before the
// first Snapshot; the Runner calls it from the scan's Order callback,
// after chunk discovery completes.
func (e *Estimator) SetTotalChunks(n int) { e.total = n }

// Observe folds one chunk's per-group aggregate snapshots into the
// running moments. Chunks MUST arrive in sample order (any prefix of the
// permutation is a uniform sample; an arbitrary subset is not — the
// Runner's reorder buffer enforces this). A group absent from gas
// contributed zero to every sum, which the global n already accounts
// for: its sums simply don't move.
func (e *Estimator) Observe(gas []engine.GroupAgg) {
	e.n++
	for _, ga := range gas {
		g, ok := e.groups[ga.Key]
		if !ok {
			g = &groupAcc{keys: ga.Keys, cells: make([]cell, len(e.q.Items))}
			e.groups[ga.Key] = g
		}
		for j, it := range e.q.Items {
			if it.Agg == engine.AggNone || j >= len(ga.Aggs) {
				continue
			}
			snap := ga.Aggs[j]
			var u, v float64
			switch it.Agg {
			case engine.AggCount:
				u = float64(snap.Count)
			case engine.AggSum:
				u = sumOf(it, snap)
			case engine.AggAvg:
				u = sumOf(it, snap)
				v = float64(snap.Count)
			}
			c := &g.cells[j]
			c.sumU += u
			c.sumUU += u * u
			c.sumV += v
			c.sumVV += v * v
			c.sumUV += u * v
		}
	}
}

func sumOf(it engine.SelectItem, s engine.AggSnapshot) float64 {
	if it.Expr != nil && it.Expr.Type() == schema.Float64 {
		return s.SumFloat
	}
	return float64(s.SumInt)
}

// GroupEstimate is one output row of a snapshot: the estimated values in
// select-list order with a half-width bound per cell (zero for group-by
// key columns, whose values are exact).
type GroupEstimate struct {
	Key    string
	Values []engine.Value
	Bounds []float64
}

// Snapshot is the state of the estimate after some prefix of the sample.
type Snapshot struct {
	Chunks    int // chunks observed
	Total     int // chunks in the file
	Groups    []GroupEstimate
	MaxRel    float64 // worst relative half-width across all bounds
	Converged bool
}

// Snapshot computes the current estimates and bounds, and latches
// convergence once the worst relative half-width reaches the tolerance
// (with at least DefaultMinChunks observed). Latching keeps the stop decision
// monotonic even if a later snapshot's bound would wiggle back up.
func (e *Estimator) Snapshot() Snapshot {
	snap := Snapshot{Chunks: e.n, Total: e.total}
	keys := make([]string, 0, len(e.groups))
	for k := range e.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	maxRel := 0.0
	sawBound := false
	for _, k := range keys {
		g := e.groups[k]
		ge := GroupEstimate{
			Key:    k,
			Values: make([]engine.Value, len(e.q.Items)),
			Bounds: make([]float64, len(e.q.Items)),
		}
		for j, it := range e.q.Items {
			if it.Agg == engine.AggNone {
				ge.Values[j] = g.keys[e.keyIdx[it.Expr.String()]]
				continue
			}
			est, half := e.cellEstimate(it, &g.cells[j])
			ge.Values[j] = engine.FloatValue(est)
			ge.Bounds[j] = half
			if r := relBound(est, half); r > maxRel {
				maxRel = r
			}
			sawBound = true
		}
		snap.Groups = append(snap.Groups, ge)
	}
	if !sawBound {
		// No aggregate cell estimated yet (e.g. grouped query before any
		// group appears): nothing to declare converged on.
		maxRel = math.Inf(1)
	}
	snap.MaxRel = maxRel
	if !e.converged && e.cfg.Tolerance > 0 && e.n >= DefaultMinChunks && maxRel <= e.cfg.Tolerance {
		e.converged = true
	}
	snap.Converged = e.converged
	return snap
}

// cellEstimate scales one cell's moments to a population estimate and a
// CLT half-width. COUNT/SUM use the expansion estimator N·ū with
// finite-population-corrected variance N²·(1−n/N)·s²/n; AVG uses the
// ratio estimator Σu/Σv with the delta-method variance over per-chunk
// residuals d_i = u_i − R·v_i. The FPC factor hits zero at n == N, so a
// completed scan always reports a zero-width bound.
func (e *Estimator) cellEstimate(it engine.SelectItem, c *cell) (est, half float64) {
	if e.n == 0 || e.total <= 0 {
		return math.NaN(), math.Inf(1)
	}
	n := float64(e.n)
	N := float64(e.total)
	fpc := 1 - n/N
	if fpc < 0 {
		fpc = 0
	}
	if it.Agg == engine.AggAvg {
		if c.sumV == 0 {
			// No qualifying rows sampled: AVG is so far undefined. At
			// full scan that is the exact (NaN) answer.
			if fpc == 0 {
				return math.NaN(), 0
			}
			return math.NaN(), math.Inf(1)
		}
		r := c.sumU / c.sumV
		if fpc == 0 {
			return r, 0
		}
		if e.n < 2 {
			return r, math.Inf(1)
		}
		sd2 := (c.sumUU - 2*r*c.sumUV + r*r*c.sumVV) / (n - 1)
		if sd2 < 0 {
			sd2 = 0 // guard float cancellation
		}
		vbar := c.sumV / n
		return r, e.z * math.Sqrt(fpc*sd2/n) / vbar
	}
	mean := c.sumU / n
	est = N * mean
	if fpc == 0 {
		return est, 0
	}
	if e.n < 2 {
		return est, math.Inf(1)
	}
	s2 := (c.sumUU - c.sumU*c.sumU/n) / (n - 1)
	if s2 < 0 {
		s2 = 0
	}
	return est, e.z * N * math.Sqrt(fpc*s2/n)
}

// relBound is the convergence criterion for one cell: half-width
// relative to the estimate's magnitude. A zero-width bound converges
// regardless of the estimate; a zero (or undefined) estimate with a
// nonzero bound never does.
func relBound(est, half float64) float64 {
	if half == 0 {
		return 0
	}
	if est == 0 || math.IsNaN(est) {
		return math.Inf(1)
	}
	return half / math.Abs(est)
}

// estimateResult materializes a snapshot as an engine result (group rows
// sorted by key, matching the exact path's ordering).
func estimateResult(q *engine.Query, snap Snapshot) *engine.Result {
	res := &engine.Result{Cols: q.ColumnNames()}
	for _, g := range snap.Groups {
		res.Rows = append(res.Rows, g.Values)
	}
	return res
}
