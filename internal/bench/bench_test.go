package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The tests in this file run inside `go test ./...`, sharing the cores
// with every other package's tests, so they assert only what no schedule
// can change: row counts, rendering, ranges, error-free runs. Every
// comparison of one measured duration against another is in
// timing_test.go, which only `make experiments-check` builds — with this
// package alone on the machine.

// tiny returns a scale small enough for unit tests (milliseconds per
// experiment) while keeping multiple chunks per file.
func tiny() Scale {
	return Scale{
		Rows:        1 << 11, // 2048
		Cols:        8,
		ChunkLines:  1 << 7, // 16 chunks
		CacheChunks: 4,
		SAMReads:    1200,
		DiskMBps:    200,
		Reps:        -1, // single measurement keeps unit tests fast
	}
}

func TestCalibrateDisk(t *testing.T) {
	cfg := CalibrateDisk(Scale{Cols: 8}, 6)
	if cfg.ReadBandwidth <= 0 || cfg.WriteBandwidth <= 0 {
		t.Errorf("calibration produced %+v", cfg)
	}
	// Override path.
	cfg2 := CalibrateDisk(Scale{DiskMBps: 123}, 6)
	if cfg2.ReadBandwidth != 123<<20 {
		t.Errorf("override = %d", cfg2.ReadBandwidth)
	}
}

func TestFig4Shapes(t *testing.T) {
	r, err := RunFig4(tiny(), []int{0, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SpeculativeLoadedPct < 0 || row.SpeculativeLoadedPct > 100 {
			t.Errorf("loaded pct = %v", row.SpeculativeLoadedPct)
		}
	}
	tables := r.Tables()
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "Figure 4a") {
		t.Error("rendered output missing title")
	}
}

// fig5Scale is the Figure 5 test configuration: unthrottled disk so stage
// shares reflect CPU work only, unstretched CPU so a stray GC pause is not
// multiplied, five repetitions over 16 chunks of 256 lines.
func fig5Scale() Scale {
	sc := tiny()
	sc.DiskMBps = -1
	sc.CPUSlowdown = -1
	sc.Reps = 5
	sc.Rows = 1 << 12
	return sc
}

func TestFig5Shapes(t *testing.T) {
	r, err := RunFig5(fig5Scale(), []int{2, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Parse <= 0 || row.Tokenize <= 0 || row.Total() < row.Parse {
			t.Errorf("stage split %+v is not a split of a positive total", row)
		}
	}
	var buf bytes.Buffer
	for _, tb := range r.Tables() {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("rendered output missing title")
	}
}

func TestFig6Runs(t *testing.T) {
	sc := tiny()
	sc.Cols = 64
	r, err := RunFig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(Fig6NumCols)*len(Fig6Positions) {
		t.Errorf("cells = %d", len(r.Cells))
	}
	var buf bytes.Buffer
	for _, tb := range r.Tables() {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	r, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range r.Cells {
		if c.Time <= 0 {
			t.Errorf("cell %+v has non-positive time", c)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	r, err := RunFig8(tiny(), 5)
	if err != nil {
		t.Fatal(err)
	}
	bySeries := map[Fig8Method]Fig8Series{}
	for _, s := range r.Series {
		bySeries[s.Method] = s
		if len(s.Times) != 5 {
			t.Fatalf("%s has %d times", s.Method, len(s.Times))
		}
	}
	// load+db is fully loaded after query 1 and never reloads.
	ldb := bySeries[MethodLoadDB]
	if ldb.Loaded[0] != ldb.FileLen {
		t.Errorf("load+db loaded %d/%d after query 1", ldb.Loaded[0], ldb.FileLen)
	}
	// external never loads.
	ext := bySeries[MethodExternal]
	if ext.Loaded[len(ext.Loaded)-1] != 0 {
		t.Errorf("external loaded %d chunks", ext.Loaded[len(ext.Loaded)-1])
	}
	// speculative loading progress is monotone and reaches full load.
	spec := bySeries[MethodSpeculative]
	for i := 1; i < len(spec.Loaded); i++ {
		if spec.Loaded[i] < spec.Loaded[i-1] {
			t.Errorf("speculative loaded regressed at query %d", i+1)
		}
	}
	if spec.Loaded[len(spec.Loaded)-1] != spec.FileLen {
		t.Errorf("speculative never converged: %d/%d", spec.Loaded[len(spec.Loaded)-1], spec.FileLen)
	}
	// buffered also converges (eviction writes + flush).
	buf := bySeries[MethodBuffered]
	if buf.Loaded[len(buf.Loaded)-1] != buf.FileLen {
		t.Errorf("buffered never converged: %d/%d", buf.Loaded[len(buf.Loaded)-1], buf.FileLen)
	}
}

func TestFig9Runs(t *testing.T) {
	sc := tiny()
	sc.DiskMBps = 0   // calibrate so the run is CPU-bound
	sc.Rows = 1 << 14 // enough work for the tracer to observe
	r, err := RunFig9(sc, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) == 0 {
		t.Fatal("no samples collected; run too fast for the tracer")
	}
	last := r.Samples[len(r.Samples)-1]
	if last.Progress <= 0 {
		t.Errorf("final progress = %v", last.Progress)
	}
}

func TestTable1Shapes(t *testing.T) {
	sc := tiny()
	sc.SAMReads = 20000 // large enough that decompression cost is visible
	r, err := RunTable1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("methods = %d, want 6 (5 paper + 1 extension)", len(r.Rows))
	}
	// All methods agreed on the distribution (validated inside RunTable1);
	// groups must be equal and non-trivial.
	g := r.Rows[0].Groups
	if g < 2 {
		t.Errorf("CIGAR distribution has %d groups; workload too degenerate", g)
	}
	for _, row := range r.Rows {
		if row.Groups != g {
			t.Errorf("%s produced %d groups, want %d", row.Method, row.Groups, g)
		}
	}
	// BAM is smaller than SAM.
	if r.BAMBytes >= r.SAMBytes {
		t.Errorf("BAM (%d) should be smaller than SAM (%d)", r.BAMBytes, r.SAMBytes)
	}
	// Database processing must beat the sequential BAM path.
	times := map[string]time.Duration{}
	for _, row := range r.Rows {
		times[row.Method] = row.Time
	}
	if times["Database processing"] >= times["External tables (BAM + BAMTools)"] {
		t.Errorf("db processing (%v) should beat sequential BAM (%v)",
			times["Database processing"], times["External tables (BAM + BAMTools)"])
	}
	// The indexed parallel decoder (extension) must beat the sequential
	// library path.
	if times["BAM + parallel decode [extension]"] >= times["External tables (BAM + BAMTools)"] {
		t.Errorf("parallel BAM (%v) should beat sequential BAM (%v)",
			times["BAM + parallel decode [extension]"], times["External tables (BAM + BAMTools)"])
	}
}

func TestAblationsRun(t *testing.T) {
	sc := tiny()
	if r, err := RunAblationSelective(sc); err != nil || r.SelectiveTime <= 0 {
		t.Errorf("selective: %v %+v", err, r)
	}
	if r, err := RunAblationSafeguard(sc, 3); err != nil {
		t.Errorf("safeguard: %v", err)
	} else {
		// With the safeguard, loading progresses every query; without it,
		// an I/O-bound run loads nothing.
		if r.WithLoaded[2] <= r.WithLoaded[0] && r.WithLoaded[0] == 0 {
			t.Errorf("safeguard made no progress: %v", r.WithLoaded)
		}
		if r.WithoutLoaded[2] > r.WithLoaded[2] {
			t.Errorf("safeguard-off loaded more than safeguard-on: %v vs %v",
				r.WithoutLoaded, r.WithLoaded)
		}
	}
	if r, err := RunAblationStats(sc); err != nil {
		t.Errorf("stats: %v", err)
	} else if r.SkippedChunks == 0 {
		t.Errorf("stats ablation skipped no chunks")
	}
	if r, err := RunAblationPushdown(sc); err != nil {
		t.Errorf("pushdown: %v", err)
	} else if r.Selectivity <= 0 || r.Selectivity > 0.1 {
		t.Errorf("pushdown selectivity = %v, want highly selective", r.Selectivity)
	}
	if r, err := RunAblationWriteGranularity(sc); err != nil {
		t.Errorf("write granularity: %v", err)
	} else if r.SpeculativeLoaded == 0 && r.BufferedLoaded == 0 {
		t.Error("neither granularity loaded anything")
	}
}

func TestSuiteRunUnknown(t *testing.T) {
	if err := Run("nope", tiny(), &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestSuiteRunAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(ExpAblations, tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"selective conversion", "safeguard flush", "chunk skipping",
		"push-down selection", "write granularity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
