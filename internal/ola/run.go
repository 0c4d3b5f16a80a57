package ola

import (
	"context"
	"fmt"

	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
)

// Run executes q over op as a sampled scan: chunks are visited in the
// seeded permutation order, every frontier advance invokes onProgress
// (when non-nil) with the converging snapshot, and the scan terminates
// early once the bounds meet cfg.Tolerance. The returned result is the
// exact engine answer when the scan covered the whole file (tolerance
// zero or never met) and the final estimate otherwise; the returned
// runner exposes the last snapshot for bound reporting.
func Run(ctx context.Context, op *scanraw.Operator, q *engine.Query, cfg Config, seed int64, onProgress func(Snapshot)) (*engine.Result, *Runner, scanraw.RunStats, error) {
	r, err := NewRunner(q, op.Table().Schema(), cfg, onProgress)
	if err != nil {
		return nil, nil, scanraw.RunStats{}, err
	}
	m := scanraw.Member{Query: q, Consumer: r, Order: r.Order(seed), Done: r.Satisfied}
	st, err := op.RunContext(ctx, m.Request(ctx))
	if err != nil {
		return nil, nil, st, err
	}
	res, err := r.Result()
	if err != nil {
		return nil, nil, st, fmt.Errorf("ola: finalize: %w", err)
	}
	return res, r, st, nil
}
