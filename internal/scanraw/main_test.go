package scanraw

import (
	"testing"

	"scanraw/internal/testutil"
)

// TestMain fails the package when a test leaves pipeline goroutines —
// readers, consumers, workers — running after it returns. See
// internal/testutil.
func TestMain(m *testing.M) { testutil.Main(m) }
