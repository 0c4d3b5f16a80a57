// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per artifact) plus the ablation
// studies. Run them with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment at a reduced scale per iteration
// and reports the headline shape numbers via b.ReportMetric, so `-bench`
// output doubles as a quick reproduction check. The full-scale rendered
// tables come from `go run ./cmd/experiments`.
package scanraw

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"scanraw/internal/bench"
	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	intscan "scanraw/internal/scanraw"
	"scanraw/internal/store"
)

// benchScale keeps a single iteration in the tens of milliseconds.
func benchScale() bench.Scale {
	return bench.Scale{
		Rows:        1 << 13,
		Cols:        32,
		ChunkLines:  1 << 9, // 16 chunks
		CacheChunks: 4,
		SAMReads:    8000,
		Reps:        -1, // one measurement per benchmark iteration
	}
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// BenchmarkFig4 regenerates Fig. 4: execution time, loaded percentage and
// speedup versus worker count for the three SCANRAW regimes.
func BenchmarkFig4(b *testing.B) {
	sc := benchScale()
	var last *bench.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig4(sc, []int{0, 2, 8})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	seq, par := last.Rows[0], last.Rows[len(last.Rows)-1]
	b.ReportMetric(msOf(seq.ExternalTime), "ms-external-seq")
	b.ReportMetric(msOf(par.ExternalTime), "ms-external-8w")
	b.ReportMetric(par.SpeculativeLoadedPct, "%loaded-spec-8w")
	b.ReportMetric(seq.SpeculativeLoadedPct, "%loaded-spec-seq")
}

// BenchmarkFig5 regenerates Fig. 5: per-chunk stage times vs column count
// under full loading.
func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	var last *bench.Fig5Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5(sc, []int{2, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	wide := last.Rows[len(last.Rows)-1]
	b.ReportMetric(msOf(wide.Parse), "ms-parse-per-chunk-64col")
	b.ReportMetric(100*float64(wide.Parse)/float64(wide.Total()), "%parse-share-64col")
}

// BenchmarkFig6 regenerates Fig. 6: selective tokenizing/parsing across
// projected-column counts and positions.
func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	sc.Cols = 64
	var last *bench.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig6(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var narrow, wide time.Duration
	for _, c := range last.Cells {
		if c.Position == 0 && c.NumCols == 1 {
			narrow = c.Time
		}
		if c.Position == 0 && c.NumCols == 32 {
			wide = c.Time
		}
	}
	b.ReportMetric(msOf(narrow), "ms-1col")
	b.ReportMetric(msOf(wide), "ms-32col")
}

// BenchmarkFig7 regenerates Fig. 7: the chunk-size sweep.
func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	var last *bench.Fig7Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var best, worst time.Duration
	for _, c := range last.Cells {
		if c.Workers != 8 {
			continue
		}
		if best == 0 || c.Time < best {
			best = c.Time
		}
		if c.Time > worst {
			worst = c.Time
		}
	}
	b.ReportMetric(msOf(best), "ms-best-chunksize-8w")
	b.ReportMetric(msOf(worst), "ms-worst-chunksize-8w")
}

// BenchmarkFig8 regenerates Fig. 8: the six-query sequence across the four
// loading methods.
func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	var last *bench.Fig8Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig8(sc, 6)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, s := range last.Series {
		cum := s.Cumulative()
		switch s.Method {
		case bench.MethodSpeculative:
			b.ReportMetric(msOf(s.Times[0]), "ms-spec-q1")
			b.ReportMetric(msOf(cum[len(cum)-1]), "ms-spec-cum6")
		case bench.MethodExternal:
			b.ReportMetric(msOf(s.Times[0]), "ms-external-q1")
			b.ReportMetric(msOf(cum[len(cum)-1]), "ms-external-cum6")
		case bench.MethodLoadDB:
			b.ReportMetric(msOf(cum[len(cum)-1]), "ms-loaddb-cum6")
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9: the CPU/I-O utilization trace under
// speculative loading in a CPU-bound configuration.
func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	sc.Rows = 1 << 12 // fig9 multiplies columns by 4
	var last *bench.Fig9Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig9(sc, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var maxCPU, maxWrite float64
	for _, s := range last.Samples {
		if s.CPUPercent > maxCPU {
			maxCPU = s.CPUPercent
		}
		if s.WritePercent > maxWrite {
			maxWrite = s.WritePercent
		}
	}
	b.ReportMetric(maxCPU, "max-CPU%")
	b.ReportMetric(maxWrite, "max-write%")
}

// BenchmarkTable1 regenerates Table 1: the SAM/BAM genomics workload
// across the five methods.
func BenchmarkTable1(b *testing.B) {
	sc := benchScale()
	var last *bench.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTable1(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		switch row.Method {
		case "External tables (SAM)":
			b.ReportMetric(msOf(row.Time), "ms-sam-external")
		case "External tables (BAM + BAMTools)":
			b.ReportMetric(msOf(row.Time), "ms-bam-bamtools")
		case "Database processing":
			b.ReportMetric(msOf(row.Time), "ms-db")
		}
	}
}

// BenchmarkAblationSelective compares selective conversion against
// converting every column for a narrow query.
func BenchmarkAblationSelective(b *testing.B) {
	sc := benchScale()
	var last *bench.AblationSelectiveResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAblationSelective(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(msOf(last.SelectiveTime), "ms-selective")
	b.ReportMetric(msOf(last.FullTime), "ms-full-conversion")
}

// BenchmarkAblationSafeguard compares speculative loading with and without
// the safeguard flush in an I/O-bound run.
func BenchmarkAblationSafeguard(b *testing.B) {
	sc := benchScale()
	var last *bench.AblationSafeguardResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAblationSafeguard(sc, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.WithLoaded[2]), "chunks-loaded-with")
	b.ReportMetric(float64(last.WithoutLoaded[2]), "chunks-loaded-without")
}

// BenchmarkAblationStats compares a selective query with and without
// min/max chunk skipping.
func BenchmarkAblationStats(b *testing.B) {
	sc := benchScale()
	var last *bench.AblationStatsResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAblationStats(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(msOf(last.WithStatsTime), "ms-with-stats")
	b.ReportMetric(msOf(last.WithoutStatsTime), "ms-without-stats")
	b.ReportMetric(float64(last.SkippedChunks), "chunks-skipped")
}

// BenchmarkAblationWriteGranularity compares speculative one-at-a-time
// writes against buffered batch-on-eviction writes.
func BenchmarkAblationWriteGranularity(b *testing.B) {
	sc := benchScale()
	var last *bench.AblationWriteGranularityResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAblationWriteGranularity(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(msOf(last.SpeculativeTime), "ms-speculative")
	b.ReportMetric(msOf(last.BufferedTime), "ms-buffered")
}

// BenchmarkAblationPushdown compares push-down selection in PARSE against
// parse-then-filter at the conversion layer.
func BenchmarkAblationPushdown(b *testing.B) {
	sc := benchScale()
	var last *bench.AblationPushdownResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunAblationPushdown(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(msOf(last.PushdownTime), "ms-pushdown")
	b.ReportMetric(msOf(last.StandardTime), "ms-standard")
	b.ReportMetric(100*last.Selectivity, "%selectivity")
}

// BenchmarkSuiteRender exercises the full rendering path end to end at
// minimal scale.
func BenchmarkSuiteRender(b *testing.B) {
	sc := benchScale()
	sc.Rows = 1 << 11
	sc.SAMReads = 2000
	for i := 0; i < b.N; i++ {
		for _, exp := range []bench.Experiment{bench.ExpFig8, bench.ExpTable1} {
			if err := bench.Run(exp, sc, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkColdScanFileDisk puts a number on the paper's "at no cost" claim
// on real storage: one cold S1 (12 of 16 columns, 64 chunks through a
// 32-chunk cache — the cold_sequence shape of benchmark/) over a fresh
// FileDisk data-dir, with the daemon's default operator configuration and
// the CPU-cost simulation off, under ExternalTables (nothing is written) and
// Speculative (every converted chunk ends up loaded). ms/scan is the query's
// wall time; the difference between the two is what loading costs the query.
func BenchmarkColdScanFileDisk(b *testing.B) {
	spec := gen.CSVSpec{Rows: 64 << 13, Cols: 16, Seed: 1, MaxValue: 1 << 20}
	raw := gen.Bytes(spec)
	fp := store.FingerprintBytes(raw)
	cols := make([]int, 12)
	weights := make([]float64, spec.Cols)
	for i := range cols {
		cols[i] = i
		weights[i] = 1 // what the workload tracker holds once S1 is admitted
	}
	want := gen.SumRange(spec, cols, 0, spec.Rows)
	for _, pol := range []struct {
		name   string
		policy intscan.WritePolicy
	}{{"external", intscan.ExternalTables}, {"speculative", intscan.Speculative}} {
		b.Run(pol.name, func(b *testing.B) {
			var scan time.Duration
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
				if err != nil {
					b.Fatal(err)
				}
				man, err := store.OpenManifest(dir)
				if err != nil {
					b.Fatal(err)
				}
				st, err := dbstore.OpenDurable(fd, man)
				if err != nil {
					b.Fatal(err)
				}
				fd.Preload("raw/data.csv", raw)
				table, err := st.EnsureTable("data", spec.Schema(), "raw/data.csv", fp)
				if err != nil {
					b.Fatal(err)
				}
				op := intscan.New(st, table, intscan.Config{
					Workers: 8, ChunkLines: 1 << 13, CacheChunks: 32, Policy: pol.policy,
					Safeguard: true, CollectStats: true, Speculation: intscan.SpecPayoff,
					ColumnWeights: func() []float64 { return weights },
				})
				q, err := engine.SumAllColumns(table.Schema(), "data", cols)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				res, _, err := intscan.ExecuteQuery(op, q)
				scan += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Rows[0][0].Int; got != want {
					b.Fatalf("sum = %d, want %d", got, want)
				}
				op.WaitIdle()
				if err := man.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(msOf(scan)/float64(b.N), "ms/scan")
		})
	}
}
