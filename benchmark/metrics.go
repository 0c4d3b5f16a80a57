package main

import "fmt"

// metricDef names one metric the benchmark reports. The same table drives
// the printed report, the results JSON, -compare, and (through a unit test)
// BENCHMARK.json, so a metric cannot exist in one place and not another.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	// Moves is the interaction table entry: for a per-layer metric, the
	// end-to-end metric it should move and on which workload; for an
	// end-to-end metric, what it measures on each workload.
	Moves string
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// endToEnd is the bounded set: every workload reports every one of them,
// because the driver compares each metric on each workload. Every timing is
// corrected by the host meter (hostmeter.go): it is the time the
// work takes on this host while the neighbours are quiet. The timing bounds are
// the widest the driver's contract allows (25%); corrected, the run-to-run
// spread of these metrics on the 2-core sandbox is 3-9% (README, "Sizing").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "spawn -> /healthz 200, plus the wide query and the wait for fully_loaded on the loop workloads; the fastest set-up of the run (spawn time is bimodal: the disk throttles after a burst)"},
	{"cold_query_ms", "ms", "lower", 0.25, "first query against the raw file on a fresh data-dir (S1 of a sequence, the wide set-up query of a loop); median"},
	{"scan_mbps", "MB/s", "higher", 0.25, "raw bytes / cold_query_ms"},
	{"converge_s", "s", "lower", 0.25, "first query sent -> every chunk loaded: S1+S2+S3 of a sequence (the issue's seq_total_s), wide query + wait for fully_loaded of a loop; median"},
	{"query_p50_ms", "ms", "lower", 0.25, "median latency once converged: the S3 runs that follow the first one after the restart of a sequence, every query of a loop"},
	{"qps", "1/s", "higher", 0.25, "correct replies / time clients spent waiting for them: the loop's window, or the summed query latencies of a sequence's repetition (median over repetitions)"},
	{"storage_amplification", "ratio", "lower", 0.02, "bytes under blobs/db after the SIGTERM drain / raw bytes (exact count)"},
}

// workloadExtras are numbers only some workloads have: the issue's
// end-to-end metrics that apply to one kind of workload, and the per-class
// medians of warm_mix. The driver's contract wants every listed metric from
// every workload, so these are not listed in BENCHMARK.json: a run prints and
// stores them for the workloads that measure them and for no other.
var workloadExtras = []metricDef{
	{"wl.partial_query_ms", "ms", "lower", 0, "sequences: median S2 (partial-width: loaded groups from db pages + narrow conversion)"},
	{"wl.restart_query_ms", "ms", "lower", 0, "sequences: median first S3 after the restart (db pages only, cold cache)"},
	{"wl.query_tail_ms", "ms", "lower", 0, "loops: highest of p90/p95/p99 with >= 10 samples beyond it"},
	{"wl.query_tail_pct", "pct", "higher", 0, "loops: which percentile wl.query_tail_ms is"},
	{"wl.rows_per_s", "1/s", "higher", 0, "stream_rows: result rows delivered per second"},
	{"wl.ttfb_p50_ms", "ms", "lower", 0, "stream_rows: request sent -> first row line"},
	{"host.slowdown", "ratio", "lower", 0, "every workload: the host meter's mean kernel time over the measured part of the run / its floor; what the timings were divided by"},
	{"host.cold_query_wall_ms", "ms", "lower", 0, "every workload: cold_query_ms as the clock read it, before the host meter's correction"},
	{"host.query_p50_wall_ms", "ms", "lower", 0, "every workload: query_p50_ms as the clock read it, before the host meter's correction"},
	{"server.class_agg_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class; moves query_p50_ms, qps"},
	{"server.class_filter_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class; moves query_p50_ms, qps"},
	{"server.class_groupby_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class (the slowest); moves query_p50_ms, qps"},
	{"server.class_topk_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class; moves query_p50_ms, qps"},
	{"server.class_limit_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class; moves query_p50_ms, qps"},
	{"server.class_ola_p50_ms", "ms", "lower", 0, "warm_mix: median latency of the class; moves query_p50_ms, qps"},
}

// perLayer is the outside-in layer table: every number is taken by timing
// calls into a layer's public functions from this package, or by reading
// /metrics and /proc/<pid> of the live daemon. The traced run of every
// workload measures every one of them.
var perLayer = []metricDef{
	{"store.read_mbps", "MB/s", "higher", 0, "cold_query_ms, scan_mbps on both sequences; nothing on stream_rows"},
	{"store.write_blob_ms", "ms", "lower", 0, "cold_query_ms, converge_s (speculative page writes: temp+fsync+rename)"},
	{"store.preload_mbps", "MB/s", "higher", 0, "setup_s everywhere"},
	{"store.manifest_append_us", "us", "lower", 0, "cold_query_ms, converge_s (one journal append per loaded group)"},
	{"tok.tokenize_mbps", "MB/s", "higher", 0, "nothing end to end while the fused kernels are the default"},
	{"parse.parse_mbps", "MB/s", "higher", 0, "nothing end to end while the fused kernels are the default"},
	{"kernel.convert_wide_mbps", "MB/s", "higher", 0, "cold_query_ms, scan_mbps on cold_sequence, warm_mix and stream_rows set-up; nothing on sam_sequence"},
	{"kernel.convert_narrow_mbps", "MB/s", "higher", 0, "wl.partial_query_ms, converge_s on cold_sequence"},
	{"kernel.convert_sam_mbps", "MB/s", "higher", 0, "cold_query_ms, scan_mbps on sam_sequence only"},
	{"kernel.allocs_per_chunk", "count", "lower", 0, "cold_query_ms (GC pressure); exact"},
	{"chunk.encode_mbps", "MB/s", "higher", 0, "cold_query_ms, converge_s (page encode on the write path)"},
	{"chunk.decode_mbps", "MB/s", "higher", 0, "query_p50_ms, qps on warm_mix"},
	{"chunk.decode_str_mbps", "MB/s", "higher", 0, "query_p50_ms on sam_sequence"},
	{"dbstore.write_chunk_ms", "ms", "lower", 0, "cold_query_ms, converge_s"},
	{"dbstore.read_chunk_ms", "ms", "lower", 0, "query_p50_ms, qps on warm_mix and the sequences' S3"},
	{"dbstore.read_mbps", "MB/s", "higher", 0, "query_p50_ms, qps on warm_mix"},
	{"dbstore.pages_per_chunk", "count", "lower", 0, "storage_amplification, dbstore.write_chunk_ms (one fsync per page)"},
	{"dbstore.open_durable_ms", "ms", "lower", 0, "proc.restart_s, setup_s"},
	{"cache.hit_rate", "ratio", "higher", 0, "qps on warm_mix (a 32-chunk cache under a 128-chunk scan); ~1 on stream_rows"},
	{"cache.acquire_ns", "ns", "lower", 0, "qps on stream_rows"},
	{"engine.parse_sql_us", "us", "lower", 0, "query_p50_ms on the short warm_mix classes (limit, ola)"},
	{"engine.consume_sum_mrows_s", "Mrows/s", "higher", 0, "query_p50_ms, qps on warm_mix; a few % of cold_query_ms"},
	{"engine.consume_filter_mrows_s", "Mrows/s", "higher", 0, "query_p50_ms, qps on warm_mix"},
	{"engine.consume_groupby_mrows_s", "Mrows/s", "higher", 0, "query_p50_ms, qps on warm_mix (the slowest class)"},
	{"engine.consume_topk_mrows_s", "Mrows/s", "higher", 0, "query_p50_ms, qps on warm_mix"},
	{"engine.consume_like_mrows_s", "Mrows/s", "higher", 0, "cold_query_ms, query_p50_ms on sam_sequence"},
	{"engine.chunk_rows_mrows_s", "Mrows/s", "higher", 0, "qps, wl.rows_per_s on stream_rows"},
	{"engine.merge_us", "us", "lower", 0, "nothing with one consume worker; the fleet workload later"},
	{"engine.encode_partial_mbps", "MB/s", "higher", 0, "no current workload (fleet wire)"},
	{"engine.decode_partial_mbps", "MB/s", "higher", 0, "no current workload (fleet wire)"},
	{"engine.groupby_allocs_per_chunk", "count", "lower", 0, "query_p50_ms on warm_mix groupby class; exact"},
	{"scanraw.cold_ms", "ms", "lower", 0, "cold_query_ms (the operator without HTTP)"},
	{"scanraw.partial_ms", "ms", "lower", 0, "wl.partial_query_ms"},
	{"scanraw.converged_ms", "ms", "lower", 0, "query_p50_ms on the sequences"},
	{"scanraw.read_share", "ratio", "lower", 0, "share of S1 stage time in READ"},
	{"scanraw.convert_share", "ratio", "lower", 0, "share of S1 stage time in TOKENIZE+PARSE (fused: all PARSE)"},
	{"scanraw.consume_share", "ratio", "lower", 0, "share of S1 stage time in engine consume"},
	{"scanraw.write_share", "ratio", "lower", 0, "share of S1 stage time in speculative WRITE"},
	{"scanraw.read_blocked_share", "ratio", "lower", 0, "READ blocked on a full text buffer / operator wall: the CPU-bound signal"},
	{"scanraw.pipeline_overlap", "ratio", "higher", 0, "serial replay sum / operator wall for S1; ideal ~ cores; the single scan driver must not lower it"},
	{"scanraw.unattributed_share", "ratio", "lower", 0, "share of the S1 replay root no layer span covers"},
	{"scanraw.spec_loaded_share", "ratio", "higher", 0, "chunks loaded during S1 / chunks: how much loading rode along for free"},
	{"scanraw.limit_chunks_touched", "count", "lower", 0, "chunks delivered for LIMIT 100 where 1 suffices: the wasted-work ratio"},
	{"server.overhead_ms", "ms", "lower", 0, "query_p50_ms: handler p50 - operator wall for the converged query"},
	{"server.ndjson_mrows_s", "Mrows/s", "higher", 0, "qps, wl.rows_per_s, wl.ttfb_p50_ms on stream_rows"},
	{"server.json_mrows_s", "Mrows/s", "higher", 0, "query_p50_ms on warm_mix limit class"},
	{"server.bytes_per_row", "B", "lower", 0, "wl.rows_per_s on stream_rows"},
	{"server.coalesced_share", "ratio", "higher", 0, "qps on warm_mix (two clients share a scan)"},
	{"server.rejected_share", "ratio", "lower", 0, "failed share; 0 while clients < admission slots"},
	{"server.worker_busy_pct", "pct", "higher", 0, "conversion CPU over the run; ~0 on warm_mix and stream_rows"},
	{"server.disk_busy_pct", "pct", "lower", 0, "device busy over the run"},
	{"ola.chunks_to_bound", "count", "lower", 0, "server.class_ola_p50_ms; seeded, exact"},
	{"ola.time_to_bound_ms", "ms", "lower", 0, "server.class_ola_p50_ms, qps on warm_mix"},
	{"cluster.frame_rows_mbps", "MB/s", "higher", 0, "no current workload (fleet)"},
	{"cluster.merge_partials_us", "us", "lower", 0, "no current workload (fleet)"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "memory a change moved work into"},
	{"proc.cpu_ms_per_query", "ms", "lower", 0, "qps under load: daemon user+sys CPU / queries"},
	{"proc.restart_s", "s", "lower", 0, "restart on the populated data-dir -> /healthz, every chunk recovered (bimodal, hence not bounded)"},
	{"proc.drain_s", "s", "lower", 0, "SIGTERM -> exit"},
	{"budget.store_share", "ratio", "lower", 0, "store self time / replay root for this workload's queries"},
	{"budget.kernel_share", "ratio", "lower", 0, "kernel self time / replay root"},
	{"budget.dbstore_share", "ratio", "lower", 0, "dbstore self time / replay root"},
	{"budget.cache_share", "ratio", "lower", 0, "cache self time / replay root (stream_rows)"},
	{"budget.engine_share", "ratio", "lower", 0, "engine self time / replay root"},
	{"budget.ola_share", "ratio", "lower", 0, "ola self time / replay root (the warm_mix ola class: per-chunk partial + estimator)"},
	{"budget.server_share", "ratio", "lower", 0, "result encode self time / replay root"},
	{"budget.unattributed_share", "ratio", "lower", 0, "replay root time no layer span covers"},
	{"trace.overhead_share", "ratio", "lower", 0, "(traced - untraced) / untraced by-hand replay of the converged query, alternated 12 times"},
	{"wl.samples", "count", "higher", 0, "latency samples behind query_p50_ms in the traced run's short live run"},
}

// layerReport is what a traced run prints: its end-to-end numbers come from
// a short window and are left out. allMetrics is every table in report order.
var (
	layerReport = append(append([]metricDef(nil), workloadExtras...), perLayer...)
	allMetrics  = append(append([]metricDef(nil), endToEnd...), layerReport...)
)

// only returns the subset of m named by defs. Every workload measures every
// metric of a listed table, so a missing one is a bug in the harness.
func (m metrics) only(defs []metricDef) (metrics, error) {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = v
	}
	return out, nil
}

// unitOf maps every known metric name to its unit.
var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, d := range allMetrics {
		units[d.Name] = d.Unit
	}
	return units
}()

// set records a value under a name from the tables; an unknown name is a
// bug in the harness, not in the program under test.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	m[name] = metric{Value: v, Unit: unit}
}
