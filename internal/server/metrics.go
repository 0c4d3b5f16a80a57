package server

import (
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/scanraw"
)

// counters is the server's cumulative serving accounting. Everything is
// atomic: the hot path only ever increments.
type counters struct {
	queries   atomic.Int64 // admitted queries
	rejected  atomic.Int64 // shed with 429
	cancelled atomic.Int64 // client gone mid-query
	timedOut  atomic.Int64
	failed    atomic.Int64

	execRequests atomic.Int64 // admitted coordinator /exec shards

	scans     atomic.Int64 // physical scans dispatched (batches)
	coalesced atomic.Int64 // queries that shared their scan with others

	terminatedEarly atomic.Int64 // scans stopped before end-of-file by demand
	specGroupWrites atomic.Int64 // columns written by payoff-ranked speculation

	olaQueries           atomic.Int64 // online-aggregation (sampled) queries admitted
	olaChunksSampled     atomic.Int64 // chunks fed to OLA estimators, all queries
	olaEarlyTerminations atomic.Int64 // OLA scans stopped by bound convergence

	scanMu sync.Mutex
	scan   scanraw.ScanReport // every physical scan's report, summed

	perPolicy [5]atomic.Int64 // indexed by scanraw.WritePolicy
}

func (c *counters) policyCount(p scanraw.WritePolicy) {
	if int(p) < len(c.perPolicy) {
		c.perPolicy[p].Add(1)
	}
}

// recordScan folds one shared scan's stats into the counters.
func (s *Server) recordScan(st scanraw.RunStats, batchSize int) {
	s.met.scans.Add(1)
	if batchSize > 1 {
		s.met.coalesced.Add(int64(batchSize))
	}
	if st.TerminatedEarly {
		s.met.terminatedEarly.Add(1)
	}
	s.met.specGroupWrites.Add(int64(st.GroupWritesDuringRun))
	s.met.scanMu.Lock()
	s.met.scan.Add(st.ScanReport)
	s.met.scanMu.Unlock()
}

// ChunkCounts breaks chunk deliveries down by source. Partial counts
// partial-width hits — chunks assembled from loaded column pages plus a
// conversion of only the missing columns.
type ChunkCounts struct {
	Cache   int64 `json:"cache"`
	DB      int64 `json:"db"`
	Raw     int64 `json:"raw"`
	Partial int64 `json:"partial"`
	Skipped int64 `json:"skipped"`
}

// MetricsSnapshot is the GET /metrics payload: live utilization over the
// interval since the previous snapshot, plus cumulative serving counters.
type MetricsSnapshot struct {
	UptimeMS int64 `json:"uptime_ms"`

	Queries          int64 `json:"queries_total"`
	Rejected         int64 `json:"rejected_total"`
	Cancelled        int64 `json:"cancelled_total"`
	TimedOut         int64 `json:"timed_out_total"`
	Failed           int64 `json:"failed_total"`
	ExecRequests     int64 `json:"exec_requests_total"` // coordinator-assigned shard executions
	Draining         bool  `json:"draining"`
	PhysicalScans    int64 `json:"physical_scans_total"`
	CoalescedQueries int64 `json:"coalesced_queries_total"`
	ActiveQueries    int   `json:"active_queries"`
	AdmissionSlots   int   `json:"admission_slots"`

	// Demand-driven termination: scans that stopped before end-of-file
	// because every query they served was provably complete, and the chunks
	// those scans never had to read or convert.
	ScansTerminatedEarly     int64 `json:"scans_terminated_early"`
	ChunksSavedByTermination int64 `json:"chunks_saved_by_termination"`

	// Online aggregation: sampled-scan queries, the chunks their
	// estimators observed, and the scans stopped early because the
	// confidence bounds met the requested error tolerance.
	OLAQueries           int64 `json:"ola_queries_total"`
	OLAChunksSampled     int64 `json:"ola_chunks_sampled"`
	OLAEarlyTerminations int64 `json:"ola_early_terminations"`

	// WorkerBusyPercent is in percent-of-one-core units (8 busy workers
	// report 800), matching the paper's Fig. 9 CPU axis; the disk percents
	// are fractions of wall-clock the device was servicing transfers.
	WorkerBusyPercent float64 `json:"worker_busy_percent"`
	DiskBusyPercent   float64 `json:"disk_busy_percent"`
	DiskReadPercent   float64 `json:"disk_read_percent"`
	DiskWritePercent  float64 `json:"disk_write_percent"`

	CacheHitRate    float64     `json:"cache_hit_rate"`
	ChunksDelivered ChunkCounts `json:"chunks_delivered"`
	ChunksLoaded    int64       `json:"chunks_loaded_total"`
	// SpecGroupWrites counts the columns written by payoff-ranked
	// speculation, one page each (narrower than a chunk; full-chunk
	// scan-order writes land in ChunksLoaded instead).
	SpecGroupWrites int64 `json:"spec_group_writes_total"`

	// WorkloadWeights is each table's live per-column access profile —
	// exponentially decayed counts, the payoff policy's frequency term.
	WorkloadWeights map[string][]float64 `json:"workload_weights"`

	// Pin-leak gauges, aggregated over every live operator's chunk cache.
	// Pins are transient (held only while a chunk is being consumed), so a
	// pin count that stays above zero on an idle server is a leaked pin —
	// the pinned entries can never be evicted again.
	CacheEntries       int `json:"cache_entries"`
	CachePinnedEntries int `json:"cache_pinned_entries"`
	CachePinCount      int `json:"cache_pin_count"`

	QueriesByPolicy map[string]int64 `json:"queries_by_policy"`
	Tables          int              `json:"tables"`
	LiveOperators   int              `json:"live_operators"`

	// Warm-start recovery gauges (zero on a cold start or a non-durable
	// store): chunks whose persisted pages survived verification, chunks
	// dropped during recovery, and how long replay + verification took.
	StoreChunksRecovered   int   `json:"store_chunks_recovered"`
	StoreChunksInvalidated int   `json:"store_chunks_invalidated"`
	StoreRecoveryMS        int64 `json:"store_recovery_ms"`

	// What loading costs on the disk: the fsyncs of files and directories
	// the store's disk and catalog journal have issued and the milliseconds
	// spent in them, and the group commits the operators have made durable
	// with the chunk writes they carried — each commit is one segment blob
	// and one journal append, however many chunks it holds.
	StoreSyncs          int64   `json:"store_syncs"`
	StoreSyncMS         float64 `json:"store_sync_ms"`
	LoadCommits         int64   `json:"load_commits"`
	LoadChunksCommitted int64   `json:"load_chunks_committed"`
}

// MetricsSnapshot assembles the live metrics report. Utilization covers
// the interval since the previous call (the meter differentiates the
// cumulative busy counters).
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	sample := s.meter.Sample(0)
	s.met.scanMu.Lock()
	scan := s.met.scan
	s.met.scanMu.Unlock()
	snap := MetricsSnapshot{
		UptimeMS:         time.Since(s.start).Milliseconds(),
		Queries:          s.met.queries.Load(),
		Rejected:         s.met.rejected.Load(),
		Cancelled:        s.met.cancelled.Load(),
		TimedOut:         s.met.timedOut.Load(),
		Failed:           s.met.failed.Load(),
		ExecRequests:     s.met.execRequests.Load(),
		Draining:         s.draining.Load(),
		PhysicalScans:    s.met.scans.Load(),
		CoalescedQueries: s.met.coalesced.Load(),
		ActiveQueries:    len(s.slots),
		AdmissionSlots:   s.cfg.MaxConcurrent,

		ScansTerminatedEarly:     s.met.terminatedEarly.Load(),
		ChunksSavedByTermination: int64(scan.ChunksSaved),

		OLAQueries:           s.met.olaQueries.Load(),
		OLAChunksSampled:     s.met.olaChunksSampled.Load(),
		OLAEarlyTerminations: s.met.olaEarlyTerminations.Load(),

		WorkerBusyPercent: sample.CPUPercent,
		DiskBusyPercent:   sample.IOPercent,
		DiskReadPercent:   sample.ReadPercent,
		DiskWritePercent:  sample.WritePercent,

		ChunksDelivered: ChunkCounts{
			Cache:   int64(scan.DeliveredCache),
			DB:      int64(scan.DeliveredDB),
			Raw:     int64(scan.DeliveredRaw),
			Partial: int64(scan.DeliveredPartial),
			Skipped: int64(scan.SkippedChunks),
		},
		ChunksLoaded:    int64(scan.WrittenDuringRun),
		SpecGroupWrites: s.met.specGroupWrites.Load(),
		QueriesByPolicy: make(map[string]int64),
	}
	rec := s.store.RecoveryStats()
	snap.StoreChunksRecovered = rec.ChunksRecovered
	snap.StoreChunksInvalidated = rec.ChunksInvalidated
	snap.StoreRecoveryMS = rec.RecoveryMS
	syncs, syncTime := s.store.Syncs()
	snap.StoreSyncs, snap.StoreSyncMS = syncs, float64(syncTime)/float64(time.Millisecond)
	ops := s.operators()
	snap.LiveOperators = len(ops)
	for _, op := range ops {
		cs := op.Cache().Stats()
		snap.CacheEntries += cs.Entries
		snap.CachePinnedEntries += cs.PinnedEntries
		snap.CachePinCount += cs.PinCount
		commits, chunks := op.LoadCommits()
		snap.LoadCommits += commits
		snap.LoadChunksCommitted += chunks
	}
	if total := scan.Delivered(); total > 0 {
		snap.CacheHitRate = float64(scan.DeliveredCache) / float64(total)
	}
	for i := range s.met.perPolicy {
		if n := s.met.perPolicy[i].Load(); n > 0 {
			snap.QueriesByPolicy[scanraw.WritePolicy(i).String()] = n
		}
	}
	s.mu.RLock()
	snap.Tables = len(s.tables)
	snap.WorkloadWeights = make(map[string][]float64, len(s.tables))
	for name, e := range s.tables {
		if e.tracker.Total() > 0 {
			snap.WorkloadWeights[name] = e.tracker.Weights()
		}
	}
	s.mu.RUnlock()
	return snap
}
