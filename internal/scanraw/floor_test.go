//go:build experiments

package scanraw

import (
	"testing"

	"scanraw/internal/testutil"
)

// TestPartialWidthHitSpeedupFloor: a 2-of-32-column query over a warm table
// on a throttled disk stays at least 1.5x faster on per-column pages than on
// the full-width layout.
func TestPartialWidthHitSpeedupFloor(t *testing.T) {
	testutil.SpeedupFloor(t, "partial_width_hit_speedup", BenchmarkNarrowQueryFullWidth, BenchmarkNarrowQueryColGroup, 1.5)
}
