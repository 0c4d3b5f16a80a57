//go:build experiments

package bench

import "testing"

// Wall-clock shape checks: each compares one measured duration against
// another, so a busy neighbour can fail them. They are built only under
// -tags experiments and run by `make experiments-check` (nightly CI), with
// this package alone on the machine; `go test ./...` keeps the
// schedule-independent assertions in bench_test.go.

func TestFig4TimingShapes(t *testing.T) {
	r, err := RunFig4(tiny(), []int{0, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel runs must not be slower than sequential by a wide margin
	// (weak sanity bound; the strong shape claims live in EXPERIMENTS.md).
	seq := r.Rows[0].ExternalTime
	par := r.Rows[2].ExternalTime
	if par > seq*2 {
		t.Errorf("8 workers (%v) much slower than sequential (%v)", par, seq)
	}
}

func TestFig5TimingShapes(t *testing.T) {
	r, err := RunFig5(fig5Scale(), []int{2, 64})
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := r.Rows[0], r.Rows[1]
	// Per-chunk total and PARSE time must grow with column count (chunks
	// carry 32x the bytes and fields). The 2x bound is deliberately loose:
	// the point is direction, not magnitude, on a noisy 1-core host.
	if wide.Total() < 2*narrow.Total() {
		t.Errorf("64-col per-chunk time (%v) should far exceed 2-col (%v)",
			wide.Total(), narrow.Total())
	}
	if wide.Parse < 2*narrow.Parse {
		t.Errorf("PARSE per chunk grew only %v -> %v from 2 to 64 columns",
			narrow.Parse, wide.Parse)
	}
	// Conversion must dwarf I/O on the unthrottled disk, and PARSE must be
	// a major component of it. (Exact tokenize:parse ratios shift under
	// -race instrumentation, so the bound is loose.)
	if wide.Parse < wide.Read || wide.Parse*2 < wide.Tokenize {
		t.Errorf("at 64 columns PARSE (%v) should rival tokenize (%v) and dominate read (%v)",
			wide.Parse, wide.Tokenize, wide.Read)
	}
}

func TestAblationTimingShapes(t *testing.T) {
	sc := tiny()
	if r, err := RunAblationSelective(sc); err != nil {
		t.Errorf("selective: %v", err)
	} else if r.SelectiveTime > r.FullTime*3 {
		t.Errorf("selective (%v) wildly slower than full (%v)", r.SelectiveTime, r.FullTime)
	}
	if r, err := RunAblationPushdown(sc); err != nil {
		t.Errorf("pushdown: %v", err)
	} else if r.PushdownTime >= r.StandardTime {
		t.Errorf("pushdown (%v) should beat standard conversion (%v) at %.3f selectivity",
			r.PushdownTime, r.StandardTime, r.Selectivity)
	}
}
