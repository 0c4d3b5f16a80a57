//go:build experiments

package ola

import (
	"testing"

	"scanraw/internal/testutil"
)

// TestOLATimeToBoundSpeedupFloor: a sampled scan reaches a 5% bound at 95%
// confidence at least 1.5x sooner than the exact full scan finishes.
func TestOLATimeToBoundSpeedupFloor(t *testing.T) {
	testutil.SpeedupFloor(t, "ola_time_to_bound_speedup", BenchmarkOLAFullScan, BenchmarkOLATimeToBound, 1.5)
}
