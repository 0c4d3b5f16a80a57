// Package bench regenerates every table and figure of the paper's
// experimental evaluation (§5) at laptop scale. Each experiment has a
// typed result plus a text rendering whose rows/series match what the
// paper reports.
//
// Absolute numbers differ from the paper (their substrate is a 16-core
// server with a 4-disk RAID-0; ours is a bandwidth-modelled simulated
// disk), but the shapes are preserved because they depend on ratios the
// harness controls: conversion cost vs I/O cost (the Fig. 4 crossover),
// cache size vs file size (the Fig. 8 convergence), and text vs binary
// size (database processing vs external tables).
//
// Disk calibration: the paper's machine becomes I/O-bound at ~6 workers
// (§5.1). CalibrateDisk measures this host's single-worker conversion
// throughput on the reference 64-column file and sets the simulated disk's
// read bandwidth to 6x that, reproducing the crossover position
// independent of host speed.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/parse"
	"scanraw/internal/scanraw"
	"scanraw/internal/tok"
	"scanraw/internal/vdisk"
)

// Scale holds the experiment sizing knobs. The zero value is usable: it
// selects sizes that keep the full suite under a few minutes.
type Scale struct {
	// Rows is the base row count for the micro-benchmark files (the paper
	// uses 2^26; default here 2^15).
	Rows int
	// Cols is the base column count (paper: 64).
	Cols int
	// ChunkLines is the lines-per-chunk unit (paper: 2^19; default 2^11,
	// keeping chunks-per-file equal to the paper's 128).
	ChunkLines int
	// CacheChunks is the binary cache budget in full-width chunks (paper
	// Fig. 8: 32 = 1/4 of the file; default keeps the same 1/4 ratio).
	CacheChunks int
	// SAMReads is the read count for the Table 1 genomics workload.
	SAMReads int
	// DiskMBps overrides calibration with a fixed simulated read
	// bandwidth in MB/s (0 = calibrate, negative = unthrottled).
	DiskMBps int
	// CPUSlowdown stretches conversion tasks by this factor (simulated
	// slow cores), letting worker-count scaling appear on hosts with
	// fewer cores than the paper's 16. 0 = default (16); negative
	// disables the stretch.
	CPUSlowdown int
	// Reps is how many times each measured cell runs; the reported value
	// is the average, following the paper's methodology ("we perform all
	// experiments at least 3 times and report the average"). 0 = default
	// (3); negative = 1.
	Reps int
}

// DefaultScale returns the default experiment sizing.
func DefaultScale() Scale {
	return Scale{
		Rows:        1 << 14,
		Cols:        64,
		ChunkLines:  1 << 8, // 64 chunks per file (paper: 128)
		CacheChunks: 8,      // 1/8 of the file
		SAMReads:    20000,
		CPUSlowdown: 16,
		Reps:        3,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Rows <= 0 {
		s.Rows = d.Rows
	}
	if s.Cols <= 0 {
		s.Cols = d.Cols
	}
	if s.ChunkLines <= 0 {
		s.ChunkLines = d.ChunkLines
	}
	if s.CacheChunks <= 0 {
		s.CacheChunks = d.CacheChunks
	}
	if s.SAMReads <= 0 {
		s.SAMReads = d.SAMReads
	}
	if s.CPUSlowdown == 0 {
		s.CPUSlowdown = d.CPUSlowdown
	}
	if s.CPUSlowdown < 1 {
		s.CPUSlowdown = 1
	}
	if s.Reps == 0 {
		s.Reps = 3
	}
	if s.Reps < 1 {
		s.Reps = 1
	}
	return s
}

// repeat runs fn sc.Reps times and returns the average of the durations
// it reports.
func (s Scale) repeat(fn func() (time.Duration, error)) (time.Duration, error) {
	reps := s.Reps
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(reps), nil
}

// slowdown returns the effective CPU stretch factor.
func (s Scale) slowdown() int {
	if s.CPUSlowdown < 1 {
		return 1
	}
	return s.CPUSlowdown
}

// CalibrateDisk measures single-worker conversion throughput on a sample
// of the reference file shape and returns a disk configuration whose read
// bandwidth is ioBoundWorkers times that throughput. Write bandwidth is
// half the read bandwidth, reflecting the asymmetry of the paper's
// software-RAID spinning disks — it is what makes explicit loading cost
// real I/O time that speculative loading hides in idle intervals.
//
// The measured conversion rate is cached per column count so every
// experiment in a process shares one consistent machine model.
func CalibrateDisk(sc Scale, ioBoundWorkers int) vdisk.Config {
	sc = sc.withDefaults()
	if sc.DiskMBps < 0 {
		return vdisk.Config{} // unthrottled
	}
	if sc.DiskMBps > 0 {
		bw := int64(sc.DiskMBps) << 20
		return vdisk.Config{ReadBandwidth: bw, WriteBandwidth: bw}
	}
	bytesPerSec := conversionRate(sc.Cols) / float64(sc.slowdown())
	read := int64(bytesPerSec * float64(ioBoundWorkers))
	if read < 1<<20 {
		read = 1 << 20
	}
	return vdisk.Config{ReadBandwidth: read, WriteBandwidth: read / 2}
}

var (
	calMu    sync.Mutex
	calCache = map[int]float64{} // column count -> conversion bytes/sec
)

// conversionRate measures (once per column count) how many raw bytes per
// second one worker tokenizes and parses, without any simulated slowdown.
func conversionRate(cols int) float64 {
	calMu.Lock()
	defer calMu.Unlock()
	if r, ok := calCache[cols]; ok {
		return r
	}
	rows := 2000
	spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: 7}
	data := gen.Bytes(spec)
	tc := &chunk.TextChunk{ID: 0, Data: data, Lines: rows}
	tk := tok.Tokenizer{Delim: ',', MinFields: cols}
	p := parse.Parser{Schema: spec.Schema()}
	idx := make([]int, cols)
	for i := range idx {
		idx[i] = i
	}
	runtime.GC() // avoid charging a pending collection to the sample
	// On shared hosts, CPU steal varies second to second and a single
	// window can sample a throttled moment, mis-calibrating the whole
	// suite. Take the best of several windows: steal only ever makes a
	// window slower, so the fastest window is the closest to the machine's
	// true rate.
	best := 0.0
	for w := 0; w < 5; w++ {
		start := time.Now()
		iters := 0
		for time.Since(start) < 40*time.Millisecond {
			pm, err := tk.Tokenize(tc, cols)
			if err != nil {
				panic(err)
			}
			if _, err := p.Parse(tc, pm, idx); err != nil {
				panic(err)
			}
			iters++
		}
		if rate := float64(len(data)*iters) / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	calCache[cols] = best
	return best
}

// env bundles the per-experiment world: a fresh simulated disk, store,
// generated file and catalog table.
type env struct {
	disk  *vdisk.Disk
	store *dbstore.Store
	table *dbstore.Table
	spec  gen.CSVSpec
	size  int64
}

func newEnv(sc Scale, diskCfg vdisk.Config, rows, cols int) *env {
	d := vdisk.New(diskCfg)
	spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: 1}
	size := gen.Preload(d, "raw/bench.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		panic(err) // schema generated, cannot fail
	}
	return &env{disk: d, store: store, table: table, spec: spec, size: size}
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// runSum executes SELECT SUM(c_lo + ... + c_hi) through op and verifies
// the result against the generator's ground truth. It returns the run
// stats.
func runSum(op *scanraw.Operator, e *env, cols []int) (scanraw.RunStats, error) {
	q, err := engine.SumAllColumns(e.table.Schema(), e.table.Name(), cols)
	if err != nil {
		return scanraw.RunStats{}, err
	}
	res, st, err := scanraw.ExecuteQuery(op, q)
	if err != nil {
		return st, err
	}
	want := gen.SumRange(e.spec, cols, 0, e.spec.Rows)
	if got := res.Rows[0][0].Int; got != want {
		return st, fmt.Errorf("bench: result check failed: sum = %d, want %d", got, want)
	}
	return st, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

func pct(x float64) string { return fmt.Sprintf("%.1f", x) }

func fmtInt(x int) string { return strconv.Itoa(x) }
