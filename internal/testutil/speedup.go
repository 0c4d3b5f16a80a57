package testutil

import (
	"sort"
	"testing"
)

// speedupPairs is how many slow/fast pairs SpeedupFloor times.
const speedupPairs = 5

// SpeedupFloor fails t unless slow takes at least floor times as long as
// fast. The two benchmarks run in this process as interleaved pairs,
// alternating which goes first, and the ratio is taken between the medians
// of their ns/op — so drift of the host during the run lands on both sides.
// It asserts on wall clock: callers build under -tags experiments and run
// alone on the machine (`make experiments-check`), never in tier-1.
func SpeedupFloor(t *testing.T, name string, slow, fast func(*testing.B), floor float64) {
	t.Helper()
	run := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatalf("%s: benchmark failed", name)
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	var s, f []float64
	for pair := 0; pair < speedupPairs; pair++ {
		if pair%2 == 0 {
			s, f = append(s, run(slow)), append(f, run(fast))
		} else {
			f, s = append(f, run(fast)), append(s, run(slow))
		}
	}
	sort.Float64s(s)
	sort.Float64s(f)
	ratio := s[speedupPairs/2] / f[speedupPairs/2]
	t.Logf("%s = %.2f (medians of %d interleaved pairs: %.0f ns/op over %.0f ns/op)",
		name, ratio, speedupPairs, s[speedupPairs/2], f[speedupPairs/2])
	if ratio < floor {
		t.Errorf("%s = %.2f, below the floor of %.1f", name, ratio, floor)
	}
}
