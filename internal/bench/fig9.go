package bench

import (
	"sync/atomic"
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/metrics"
	"scanraw/internal/scanraw"
)

// Fig9Result is the resource-utilization trace of Fig. 9.
type Fig9Result struct {
	Samples []metrics.Sample
	Workers int
}

// RunFig9 reproduces Fig. 9: CPU and I/O utilization while SCANRAW
// processes a wide (4x the base column count) file with speculative
// loading in a CPU-bound configuration. The disk is calibrated so that
// even the full worker pool cannot saturate it, which makes READ block
// and lets the scheduler alternate between reading and speculative
// writing — the alternation visible in the paper's plot.
func RunFig9(sc Scale, sampleEvery time.Duration) (*Fig9Result, error) {
	sc = sc.withDefaults()
	if sampleEvery <= 0 {
		sampleEvery = 10 * time.Millisecond
	}
	const workers = 8
	cols := sc.Cols * 4
	// Calibrate the disk as if 24 workers were needed to saturate it:
	// with only 8, execution stays CPU-bound like the paper's 256-column
	// configuration.
	diskCfg := CalibrateDisk(sc, 3*workers)
	e := newEnv(sc, diskCfg, sc.Rows, cols)
	op := scanraw.New(e.store, e.table, scanraw.Config{
		CPUSlowdown: sc.slowdown(),
		Workers:     workers,
		ChunkLines:  sc.ChunkLines,
		Policy:      scanraw.Speculative,
		CacheChunks: sc.CacheChunks,
	})

	total := (sc.Rows + sc.ChunkLines - 1) / sc.ChunkLines
	var deliveredChunks atomic.Int64

	q, err := engine.SumAllColumns(e.table.Schema(), e.table.Name(), allCols(cols))
	if err != nil {
		return nil, err
	}
	ex, err := engine.NewExecutor(q, e.table.Schema())
	if err != nil {
		return nil, err
	}
	meter := metrics.NewMeter(e.disk, op.CPU().Total)
	var samples []metrics.Sample
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, meter.Sample(float64(deliveredChunks.Load())/float64(total)))
			}
		}
	}()
	_, err = op.Run(scanraw.Request{
		Columns: q.RequiredColumns(),
		Deliver: func(bc *scanraw.BinaryChunk) error {
			defer deliveredChunks.Add(1)
			return ex.Consume(bc)
		},
	})
	close(stop)
	<-stopped
	if err != nil {
		return nil, err
	}
	if _, err := ex.Result(); err != nil {
		return nil, err
	}
	return &Fig9Result{Samples: samples, Workers: workers}, nil
}

// Tables renders the utilization trace.
func (r *Fig9Result) Tables() []*Table {
	t := &Table{
		Title:  "Figure 9: resource utilization vs processing progress (speculative loading, CPU-bound)",
		Header: []string{"t (ms)", "progress %", "CPU %", "I/O %", "read %", "write %"},
	}
	for _, s := range r.Samples {
		t.Rows = append(t.Rows, []string{
			ms(s.At),
			pct(100 * s.Progress),
			pct(s.CPUPercent),
			pct(s.IOPercent),
			pct(s.ReadPercent),
			pct(s.WritePercent),
		})
	}
	t.Notes = []string{
		"expected shape: CPU ~= workers x 100% throughout; the scheduler alternates",
		"between READ and WRITE so read% dips are filled by write% bursts",
	}
	return []*Table{t}
}
