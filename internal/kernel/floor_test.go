//go:build experiments

package kernel

import (
	"testing"

	"scanraw/internal/testutil"
)

// TestConvertKernelSpeedupFloor: fused conversion of the reference 64-column
// chunk stays at least 1.5x faster than the two-stage tok+parse reference.
func TestConvertKernelSpeedupFloor(t *testing.T) {
	testutil.SpeedupFloor(t, "convert_kernel_speedup", BenchmarkTokParseChunk64, BenchmarkFusedChunk64, 1.5)
}
