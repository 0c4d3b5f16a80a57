package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// workloadDef is one workload: its name (fixed; issues cite it), the dataset
// it runs on, and why it is in the set.
type workloadDef struct {
	name     string
	dataset  string
	sequence bool // a query sequence with a restart; otherwise a closed loop
	why      string
}

var workloads = []workloadDef{
	{"cold_sequence", "ints16", true, "the paper's Fig. 8 sequence on a real disk, with a restart: store reads, int kernels, the pipeline and fsynced page writes do the work; server and encode do almost none"},
	{"sam_sequence", "sam600k", true, "the same sequence on SAM text: string columns take the generic kernel, string pages and LIKE, so an int-kernel change must show here as no change"},
	{"warm_mix", "ints16L", false, "no conversion: a closed loop of six query classes on a loaded table four times the cache, so page reads, decode, engine consume and the coalescer dominate"},
	{"stream_rows", "ints16S", false, "everything cache-resident: a closed loop streaming ~65k NDJSON rows per reply, so row materialisation and HTTP encode do all the work and storage none"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is what one workload run reports.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Failures  []string `json:"failures,omitempty"` // first few messages
}

func newResult(name string) *result { return &result{Workload: name, Metrics: metrics{}} }

// op counts one checked operation; a non-nil err counts it as failed.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 5 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

// clients is the closed-loop client count: one per core up to four.
func clients() int { return min(runtime.NumCPU(), 4) }

// setupTime is the statistic reported as setup_s: the fastest set-up of the
// run, not the median. Spawn -> /healthz is dominated by writing and syncing
// the raw blob (88-176 MB), and the sandbox's disk serves a burst of writes
// fast and throttles what follows: the same spawn takes ~0.12 s or ~0.4 s on a
// sequence, 0.23 s the first time and ~0.9 s from the third on a loop. A median
// or a quartile lands on one mode or the other depending on how many set-ups
// fitted in; the fastest is always a burst one (the first set-up of a run has
// the allowance) and still moves when work is added to set-up.
func setupTime(setups []float64) float64 { return slices.Min(setups) }

// minSequenceReps is the least repetitions a sequence workload makes, however
// short -seconds is: a median of fewer is one run's accident.
const minSequenceReps = 3

// convergedRuns is how many times a repetition re-runs S3 after the first
// post-restart S3: those replies come from the cache and database pages only,
// which is the "database speed" the paper promises a sequence converges to.
const convergedRuns = 3

// sequenceSamples collects the per-repetition measurements of a sequence.
// Queries are kept as timed intervals: the host meter's correction is applied
// when the run is over (hostmeter.go).
type sequenceSamples struct {
	setup     []timed // spawn -> /healthz on the fresh data-dir
	s1, s2    []timed
	first     [][3]timed // S1, S2, S3 of each repetition: converge_s is their sum
	drain     []float64
	restart   []float64 // spawn -> /healthz on the populated data-dir
	s3restart []timed   // the first S3 after the restart
	converged []timed   // the S3 runs after it
	replies   [][]timed // the correct replies of each repetition

	amplification float64
	peakRSS       float64
	cpuMS         float64       // daemon CPU over S1..S3, summed over repetitions
	firstLeg      daemonMetrics // /metrics after S1..S3 of the last repetition
}

// runSequence is cold_sequence and sam_sequence: on a fresh data-dir, spawn,
// S1 (raw), S2 (partial-width), S3 (cache + db), SIGTERM drain, restart on the
// same data-dir, S3 again (the durability check), then S3 convergedRuns more
// times. Repetitions continue until -seconds have passed.
func (h *harness) runSequence(ctx context.Context, w workloadDef, seconds float64) (*result, error) {
	meter, err := startHostMeter()
	if err != nil {
		return nil, err
	}
	defer meter.close()
	ds := newDataset(w.dataset, h.sz, uint64(h.seed))
	if err := ds.generate(h.tmp); err != nil {
		return nil, err
	}
	var s1, s2, s3 *query
	if ds.csv != nil {
		s1 = sumQuery("S1", *ds.csv, colRange(0, 12))
		s2 = sumQuery("S2", *ds.csv, colRange(8, 16))
		s3 = sumQuery("S3", *ds.csv, colRange(0, 16))
	} else {
		ref, err := scanSAM(ds.data)
		if err != nil {
			return nil, err
		}
		s1, s2, s3 = samLikeQuery("S1", ref), samGroupQuery(ref), samLikeQuery("S3", ref)
	}
	ds.release()
	qs := [3]*query{s1.prepare(), s2.prepare(), s3.prepare()}

	res := newResult(w.name)
	var sm sequenceSamples
	start := time.Now()
	for rep := 0; rep < minSequenceReps || time.Since(start).Seconds() < seconds; rep++ {
		if err := h.sequenceOnce(ctx, ds, qs, res, &sm); err != nil {
			return nil, err
		}
	}
	meter.close()

	cold := median(meter.quietAll(sm.s1, 1e3))
	converge := make([]float64, len(sm.first))
	for i, f := range sm.first {
		converge[i] = meter.quiet(f[0]) + meter.quiet(f[1]) + meter.quiet(f[2])
	}
	// A sequence's throughput is per repetition, so that one stalled query
	// moves one sample of the median and not the whole run's mean.
	var qps []float64
	for _, replies := range sm.replies {
		if len(replies) > 0 {
			qps = append(qps, float64(len(replies))/sum(meter.quietAll(replies, 1)))
		}
	}
	m := res.Metrics
	m.set("setup_s", setupTime(meter.quietAll(sm.setup, 1)))
	m.set("cold_query_ms", cold)
	m.set("scan_mbps", float64(ds.bytes)/1e6/(cold/1e3))
	m.set("converge_s", median(converge))
	m.set("query_p50_ms", median(meter.quietAll(sm.converged, 1e3)))
	m.set("qps", median(qps))
	m.set("storage_amplification", sm.amplification)
	m.set("wl.partial_query_ms", median(meter.quietAll(sm.s2, 1e3)))
	m.set("wl.restart_query_ms", median(meter.quietAll(sm.s3restart, 1e3)))
	m.set("wl.samples", float64(len(sm.converged)))
	m.set("host.slowdown", meter.slowdown(start, time.Now()))
	m.set("host.cold_query_wall_ms", median(wallMS(sm.s1)))
	m.set("host.query_p50_wall_ms", median(wallMS(sm.converged)))
	m.set("proc.restart_s", median(sm.restart))
	m.set("proc.drain_s", median(sm.drain))
	m.set("proc.peak_rss_mb", sm.peakRSS)
	m.set("proc.cpu_ms_per_query", sm.cpuMS/float64(3*len(sm.setup)))
	liveLayerMetrics(m, sm.firstLeg, daemonMetrics{})
	return res, nil
}

// sequenceOnce is one repetition. An error return is a harness failure (the
// daemon would not start); a wrong or failed reply is counted in res. The
// data-dir stays until the harness exits: on a filesystem mounted with
// discard, deleting a repetition's 125 MB would stall the next one's fsyncs.
func (h *harness) sequenceOnce(ctx context.Context, ds *dataset, qs [3]*query, res *result, sm *sequenceSamples) error {
	dataDir, err := h.mkdir("seq")
	if err != nil {
		return err
	}
	d, setup, err := h.spawn(ctx, ds, dataDir)
	if err != nil {
		return err
	}
	sm.setup = append(sm.setup, timed{time.Now().Add(-setup), setup})
	c := newClient(d.base)
	k := newChecker()
	sm.replies = append(sm.replies, nil)
	replies := &sm.replies[len(sm.replies)-1]

	// run sends one statement, checks it, and files its interval.
	run := func(q *query, into *[]timed, expect func(replyStats) error) timed {
		sent := time.Now()
		rep, err := c.ask(ctx, k, q)
		if err == nil && expect != nil {
			err = expect(rep.stats)
		}
		res.op(err)
		t := timed{sent, rep.latency}
		if err == nil {
			*into = append(*into, t)
			*replies = append(*replies, t)
		}
		return t
	}

	t1 := run(qs[0], &sm.s1, func(st replyStats) error {
		if st.ScanChunksRaw != ds.chunks() {
			return fmt.Errorf("S1 converted %d chunks from raw, want all %d", st.ScanChunksRaw, ds.chunks())
		}
		return nil
	})
	t2 := run(qs[1], &sm.s2, nil)
	var s3 []timed // S3 while chunks are still being loaded: part of converge_s only
	t3 := run(qs[2], &s3, nil)
	sm.first = append(sm.first, [3]timed{t1, t2, t3})
	c.close()

	if sm.firstLeg, err = d.metrics(); err != nil {
		return err
	}
	rss, cpu := d.procUsage()
	sm.peakRSS = max(sm.peakRSS, rss)
	sm.cpuMS += cpu
	drain, err := d.stop()
	if err != nil {
		return err
	}
	sm.drain = append(sm.drain, drain.Seconds())
	dbBytes, err := dirBytes(filepath.Join(dataDir, "blobs", "db"))
	if err != nil {
		return err
	}
	sm.amplification = float64(dbBytes) / float64(ds.bytes)

	// The restart leg is the durability check: the same data-dir must come
	// back with its chunks, serve S3 without converting anything, and give
	// the same answer.
	d, restart, err := h.restart(ctx, ds, dataDir, res)
	if err != nil {
		return err
	}
	sm.restart = append(sm.restart, restart.Seconds())
	c = newClient(d.base)
	k = newChecker() // check S3's content again: it now comes from pages
	noConversion := func(st replyStats) error {
		if st.ScanChunksRaw != 0 || st.ScanChunksPart != 0 {
			return fmt.Errorf("S3 after restart converted %d raw + %d partial chunks, want 0", st.ScanChunksRaw, st.ScanChunksPart)
		}
		return nil
	}
	run(qs[2], &sm.s3restart, noConversion)
	for i := 0; i < convergedRuns; i++ {
		run(qs[2], &sm.converged, noConversion)
	}
	c.close()
	_, err = d.stop()
	return err
}

// restart spawns a daemon on the data-dir a drained one left behind and
// checks, as one operation of res, that it recovered every chunk. It returns
// the daemon and spawn -> /healthz.
func (h *harness) restart(ctx context.Context, ds *dataset, dataDir string, res *result) (*daemon, time.Duration, error) {
	d, took, err := h.spawn(ctx, ds, dataDir)
	if err != nil {
		return nil, 0, err
	}
	dm, err := d.metrics()
	if err == nil && dm.ChunksRecovered != ds.chunks() {
		err = fmt.Errorf("restart recovered %d chunks, want %d", dm.ChunksRecovered, ds.chunks())
	}
	res.op(err)
	return d, took, nil
}

// loopSamples collects what a loop workload measured, as timed intervals for
// the host meter to correct once the run is over.
type loopSamples struct {
	// One per set-up: spawn -> /healthz; the wide query; wide query sent ->
	// fully loaded.
	spawn, cold, converge []timed
	lat, ttfb             []timed // one per measured reply
	byClass               map[string][]timed
	rows                  int64
	window                timed // the end of the warm-up -> the last reply
	before, after         daemonMetrics
	amplification         float64
}

// minLoopSetups is the least number of times a loop workload sets up per run,
// so that cold_query_ms and converge_s are medians. Set-ups repeat
// for half of -seconds (a cheap set-up is repeated more often); the last
// daemon serves the loop.
const minLoopSetups = 3

// runLoop is warm_mix and stream_rows: set up (spawn, wide query, wait until
// every chunk is loaded), then a closed loop for -seconds after a warm-up of
// a tenth of that.
func (h *harness) runLoop(ctx context.Context, w workloadDef, seconds float64, repeatSetup bool) (*result, error) {
	meter, err := startHostMeter()
	if err != nil {
		return nil, err
	}
	defer meter.close()
	ds := newDataset(w.dataset, h.sz, uint64(h.seed))
	if err := ds.generate(h.tmp); err != nil {
		return nil, err
	}
	ds.release()
	spec := *ds.csv
	wide := sumQuery("wide", spec, colRange(0, spec.Cols)).prepare()
	classes := mixClasses
	pool := map[string][]*query{}
	if w.name == "warm_mix" {
		pool = warmMixPool(spec, h.seed)
	} else {
		classes = []string{"stream"}
		pool["stream"] = streamPool(spec, h.seed)
	}

	res := newResult(w.name)
	sm := loopSamples{byClass: map[string][]timed{}}
	var d *daemon
	var dataDir string
	setupStart := time.Now()
	for i := 0; i == 0 || (repeatSetup && (i < minLoopSetups || time.Since(setupStart).Seconds() < seconds/2)); i++ {
		if d != nil {
			d.kill()
		}
		if dataDir, err = h.mkdir("loop"); err != nil {
			return nil, err
		}
		if d, err = h.loopSetup(ctx, ds, dataDir, wide, res, &sm); err != nil {
			return nil, err
		}
	}

	if sm.before, err = d.metrics(); err != nil {
		return nil, err
	}
	warmup := time.Duration(seconds / 10 * float64(time.Second))
	measure := time.Duration(seconds * float64(time.Second))
	closedLoop(ctx, d.base, h.seed, classes, pool, warmup, measure, res, &sm)
	if err := ctx.Err(); err != nil {
		d.kill()
		return nil, err
	}

	if sm.after, err = d.metrics(); err != nil {
		return nil, err
	}
	peakRSS, cpuMS := d.procUsage()
	drain, err := d.stop()
	if err != nil {
		return nil, err
	}
	dbBytes, err := dirBytes(filepath.Join(dataDir, "blobs", "db"))
	if err != nil {
		return nil, err
	}
	sm.amplification = float64(dbBytes) / float64(ds.bytes)
	// The durability check of a loop: the loaded table must come back whole.
	d, restart, err := h.restart(ctx, ds, dataDir, res)
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}

	if len(sm.lat) == 0 {
		return nil, fmt.Errorf("%s: no query completed inside the %.0fs window", w.name, seconds)
	}
	meter.close()
	cold := median(meter.quietAll(sm.cold, 1e3))
	converge := meter.quietAll(sm.converge, 1)
	setups := make([]float64, len(converge))
	for i := range setups {
		setups[i] = meter.quiet(sm.spawn[i]) + converge[i]
	}
	lat := meter.quietAll(sm.lat, 1e3)
	// A rate over the window is corrected the other way round: the replies
	// counted in it would have taken a shorter window on a quiet host.
	wall := meter.quiet(sm.window)
	m := res.Metrics
	m.set("setup_s", setupTime(setups))
	m.set("cold_query_ms", cold)
	m.set("scan_mbps", float64(ds.bytes)/1e6/(cold/1e3))
	m.set("converge_s", median(converge))
	m.set("query_p50_ms", median(lat))
	m.set("qps", float64(len(lat))/wall)
	m.set("storage_amplification", sm.amplification)
	m.set("wl.samples", float64(len(lat)))
	m.set("host.slowdown", sm.window.d.Seconds()/wall)
	m.set("host.cold_query_wall_ms", median(wallMS(sm.cold)))
	m.set("host.query_p50_wall_ms", median(wallMS(sm.lat)))
	if p := highestTail(len(lat), 90, 95, 99); p > 0 {
		m.set("wl.query_tail_ms", percentile(lat, p))
		m.set("wl.query_tail_pct", p)
	}
	if w.name == "stream_rows" {
		m.set("wl.rows_per_s", float64(sm.rows)/wall)
		m.set("wl.ttfb_p50_ms", median(meter.quietAll(sm.ttfb, 1e3)))
	}
	for class, ts := range sm.byClass {
		if class != "stream" {
			m.set("server.class_"+class+"_p50_ms", median(meter.quietAll(ts, 1e3)))
		}
	}
	liveLayerMetrics(m, sm.after, sm.before)
	m.set("proc.peak_rss_mb", peakRSS)
	m.set("proc.cpu_ms_per_query", cpuMS/float64(max(sm.after.Queries, 1)))
	m.set("proc.restart_s", restart.Seconds())
	m.set("proc.drain_s", drain.Seconds())
	return res, nil
}

// closedLoop runs the clients of a loop workload against the daemon at base:
// a warm-up, then the measured window. Every reply is checked and counted in
// res, the warm-up's too: the first reply to a statement, the only one whose
// content is compared in full, usually falls inside the warm-up, so dropping
// its verdict would leave the statement checked for its row count alone. The
// warm-up only keeps its latencies out of sm.
func closedLoop(ctx context.Context, base string, seed int64, classes []string, pool map[string][]*query, warmup, measure time.Duration, res *result, sm *loopSamples) {
	begin := time.Now().Add(warmup)
	end := begin.Add(measure)
	k := newChecker()
	var mu sync.Mutex // guards res and sm while clients report
	var wg sync.WaitGroup
	for ci := 0; ci < clients(); ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			draw := newDrawer(seed, ci, classes, pool)
			for ctx.Err() == nil {
				q := draw.next()
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				rep, err := c.ask(ctx, k, q)
				mu.Lock()
				res.op(err)
				if err == nil && !sent.Before(begin) {
					sm.lat = append(sm.lat, timed{sent, rep.latency})
					sm.ttfb = append(sm.ttfb, timed{sent, rep.ttfb})
					sm.byClass[q.class] = append(sm.byClass[q.class], timed{sent, rep.latency})
					sm.rows += int64(rep.rows)
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	// A reply that began inside the window counts in full, so the window
	// closes when the last one ended.
	sm.window = since(begin)
}

// liveLayerMetrics derives the per-layer numbers only a live daemon has, from
// the /metrics delta b -> a over the measured interval.
func liveLayerMetrics(m metrics, a, b daemonMetrics) {
	queries := float64(max(a.Queries-b.Queries, 1))
	delivered := float64((a.Delivered.Cache - b.Delivered.Cache) + (a.Delivered.DB - b.Delivered.DB) +
		(a.Delivered.Raw - b.Delivered.Raw) + (a.Delivered.Partial - b.Delivered.Partial))
	if delivered > 0 {
		m.set("cache.hit_rate", float64(a.Delivered.Cache-b.Delivered.Cache)/delivered)
	}
	m.set("server.coalesced_share", float64(a.Coalesced-b.Coalesced)/queries)
	m.set("server.rejected_share", float64(a.Rejected-b.Rejected)/(queries+float64(a.Rejected-b.Rejected)))
	// /metrics reports utilization since the previous snapshot, and the
	// previous one was taken as the loop began.
	m.set("server.worker_busy_pct", a.WorkerBusyPercent)
	m.set("server.disk_busy_pct", a.DiskBusyPercent)
}

// loopSetup is one set-up of a loop workload: spawn, the wide query (a cold
// scan of the whole file), then wait until speculative loading has put every
// chunk in the database. If the background writes lost a race with cache
// eviction, the wide query runs again and loads what is missing.
func (h *harness) loopSetup(ctx context.Context, ds *dataset, dataDir string, wide *query, res *result, sm *loopSamples) (*daemon, error) {
	d, healthy, err := h.spawn(ctx, ds, dataDir)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	k := newChecker()
	firstQuery := time.Now()
	for attempt := 0; ; attempt++ {
		rep, err := c.ask(ctx, k, wide)
		res.op(err)
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up query failed: %w", err)
		}
		if attempt == 0 {
			sm.cold = append(sm.cold, timed{firstQuery, rep.latency})
		}
		loaded, err := waitLoaded(ctx, d, 2*time.Second)
		if err != nil || (!loaded && attempt == 4) {
			d.kill()
			return nil, fmt.Errorf("table not fully loaded after %d wide queries: %v", attempt+1, err)
		}
		if loaded {
			break
		}
	}
	sm.converge = append(sm.converge, since(firstQuery))
	sm.spawn = append(sm.spawn, timed{firstQuery.Add(-healthy), healthy})
	return d, nil
}

// waitLoaded polls /tables until fully_loaded or the patience runs out.
func waitLoaded(ctx context.Context, d *daemon, patience time.Duration) (bool, error) {
	deadline := time.Now().Add(patience)
	for {
		ts, err := d.table()
		if err != nil {
			return false, err
		}
		if ts.FullyLoaded {
			return true, nil
		}
		if time.Now().After(deadline) {
			return false, nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// wallMS is the intervals as the clock read them, in ms: what the host.*_wall
// numbers report next to the corrected ones.
func wallMS(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.d)
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}
