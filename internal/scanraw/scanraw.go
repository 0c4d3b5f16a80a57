// Package scanraw implements SCANRAW, the paper's database physical
// operator for in-situ processing over raw files (§3): a parallel
// super-scalar pipeline whose stages — READ, TOKENIZE, PARSE (with MAP
// folded in), and WRITE — execute as asynchronous goroutines coordinated by
// a scheduler, moving chunks through bounded buffers exactly as in Fig. 2
// of the paper:
//
//	READ → [text chunks buffer] → TOKENIZE → [position buffer] → PARSE →
//	[binary chunks cache] → execution engine
//	                      ↘ WRITE → database
//
// TOKENIZE and PARSE tasks run on a shared worker pool with
// destination-space-gated dispatch (a worker is assigned only when the
// result has somewhere to go, §3.2.1). The WRITE behaviour is a pluggable
// policy: external tables (never write), full load (write everything),
// buffered load (write on cache eviction), invisible loading (a fixed
// number of chunks per query), and the paper's contribution — speculative
// loading (§4), which writes the oldest unloaded cached chunk whenever the
// READ thread is blocked or finished and the disk would otherwise idle,
// plus a safeguard flush of the cache at end of scan.
//
// An Operator is attached to a raw file, not to a query: its binary chunks
// cache, catalog statistics, and profile survive across queries (§3.3), and
// it morphs into a plain database heap scan as chunks get loaded.
package scanraw

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/cache"
	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/kernel"
	"scanraw/internal/metrics"
	"scanraw/internal/parse"
	storepkg "scanraw/internal/store"
	"scanraw/internal/tok"
)

// FusedMode selects whether conversion may use the fused per-schema kernels
// of internal/kernel, which collapse TOKENIZE+PARSE into one pass over the
// chunk bytes.
type FusedMode uint8

const (
	// FusedAuto — the default — converts with a fused kernel whenever one
	// is compatible with the query, falling back to the two-stage
	// tok+parse path otherwise (see Operator.fusedKernel for the rules).
	FusedAuto FusedMode = iota
	// FusedOff always uses the two-stage tok+parse path.
	FusedOff
)

// WritePolicy selects the scheduler's WRITE behaviour (§3.1: "The
// scheduling policy for WRITE dictates the SCANRAW behavior").
type WritePolicy uint8

const (
	// ExternalTables never writes: SCANRAW is a parallel external table
	// operator, re-converting raw data on every query.
	ExternalTables WritePolicy = iota
	// FullLoad writes every converted chunk: SCANRAW degenerates into a
	// parallel ETL (query-driven loading) operator.
	FullLoad
	// BufferedLoad writes a chunk when it is evicted from the binary
	// cache, plus a cache flush at end of query — the "buffered loading"
	// comparison method of §5.1.
	BufferedLoad
	// Speculative is the paper's contribution: write only when the disk
	// would otherwise idle, with a safeguard flush at end of scan.
	Speculative
	// Invisible loads a fixed number of chunks per query inline with
	// conversion, even if that slows processing down — the invisible
	// loading baseline [Abouzied et al.].
	Invisible
)

func (p WritePolicy) String() string {
	switch p {
	case ExternalTables:
		return "external-tables"
	case FullLoad:
		return "full-load"
	case BufferedLoad:
		return "buffered-load"
	case Speculative:
		return "speculative"
	case Invisible:
		return "invisible"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(p))
	}
}

// Config parameterizes a SCANRAW instance.
type Config struct {
	// Workers is the worker-pool size for TOKENIZE/PARSE tasks. Zero
	// selects sequential execution: chunks pass through the conversion
	// stages one at a time on the calling goroutine (the paper's
	// "0 worker threads" configuration).
	Workers int
	// ChunkLines is the number of lines per chunk, the unit of reading
	// and processing. The paper finds 2^17–2^19 optimal; default 2^13
	// (scaled with the data sizes used here).
	ChunkLines int
	// TextBufferChunks is the capacity of the text chunks buffer.
	// Default 4.
	TextBufferChunks int
	// PositionBufferChunks is the capacity of the position buffer.
	// Default 4.
	PositionBufferChunks int
	// CacheChunks is the binary chunks cache capacity. Default 32.
	CacheChunks int
	// Policy selects the WRITE behaviour. Default ExternalTables.
	Policy WritePolicy
	// InvisibleChunksPerQuery bounds per-query loading for the Invisible
	// policy. Default 4.
	InvisibleChunksPerQuery int
	// Safeguard enables the end-of-scan cache flush for Speculative and
	// BufferedLoad (§4, "safeguard mechanism").
	Safeguard bool
	// Delim is the field delimiter. Default ','.
	Delim byte
	// CollectStats records per-chunk min/max statistics in the catalog
	// while converting (§3.3). Default off.
	CollectStats bool
	// ReadBlockBytes is the disk-read granularity during discovery scans.
	// Default 256 KiB.
	ReadBlockBytes int
	// UnbiasedCache disables the LRU bias toward loaded chunks (ablation).
	UnbiasedCache bool
	// AdaptiveWorkers lets the operator resize its worker pool across
	// queries based on observed utilization (paper §3.3, resource
	// management): READ blocked on a full buffer means CPU-bound — grow;
	// READ never blocked means I/O-bound — shrink. Workers stays the
	// initial size; the pool moves within [MinWorkers, MaxWorkers].
	AdaptiveWorkers bool
	// MinWorkers / MaxWorkers bound the adaptive pool. Defaults 1 and
	// 4x Workers.
	MinWorkers int
	MaxWorkers int
	// CachePositionalMaps caches the positional maps TOKENIZE produces so
	// a later query over the same chunk skips tokenizing (the NoDB-style
	// optimization of §2). The paper argues this matters little for
	// SCANRAW — it cannot avoid reading or parsing, and the memory is
	// better spent on binary chunks — which the ablation benchmark
	// confirms; it is off by default. The cache is bounded to
	// PositionalMapCacheChunks entries.
	CachePositionalMaps bool
	// PositionalMapCacheChunks bounds the positional-map cache.
	// Default 64.
	PositionalMapCacheChunks int
	// CPUSlowdown simulates slower cores: every TOKENIZE/PARSE/CONSUME
	// task occupies its worker for CPUSlowdown times its measured duration
	// (the real conversion plus a sleep for the remainder). Values <= 1
	// disable it. This is how experiments observe worker-count scaling on
	// hosts with fewer cores than the paper's 16: sleeps overlap across
	// goroutines regardless of core count, so the pipeline's concurrency
	// behaves as if each worker had its own (slow) core, in the same
	// model-time units the simulated disk uses.
	CPUSlowdown int
	// ConsumeWorkers is the default consume parallelism for requests that
	// leave ParallelConsume unset: the number of goroutines delivered
	// chunks fan out to. The default (0, treated as 1) keeps the classic
	// serial delivery contract; values > 1 require Deliver callbacks that
	// tolerate concurrent calls (engine.ParallelExecutor does).
	ConsumeWorkers int
	// FusedKernels selects the fused single-pass conversion kernels
	// (internal/kernel). FusedAuto — the zero value, so fused conversion
	// is on by default — falls back to tok+parse automatically whenever
	// the query needs a cacheable positional map (CachePositionalMaps).
	FusedKernels FusedMode
	// Speculation ranks what the Speculative write policy loads during
	// disk-idle windows. SpecScan — the zero value — is the paper's
	// oldest-first order; SpecPayoff is workload-driven and needs
	// ColumnWeights.
	Speculation SpecPolicy
	// ColumnWeights, when non-nil, supplies the current per-column workload
	// weights (one per schema ordinal) for SpecPayoff ranking. It is called
	// on every speculation quantum and must be safe for concurrent use. A
	// nil func, a wrong-width slice, or all-zero weights fall back to scan
	// order (the cold-workload fallback).
	ColumnWeights func() []float64
}

func (c Config) withDefaults() Config {
	if c.ChunkLines <= 0 {
		c.ChunkLines = 1 << 13
	}
	if c.TextBufferChunks <= 0 {
		c.TextBufferChunks = 4
	}
	if c.PositionBufferChunks <= 0 {
		c.PositionBufferChunks = 4
	}
	if c.CacheChunks <= 0 {
		c.CacheChunks = 32
	}
	if c.InvisibleChunksPerQuery <= 0 {
		c.InvisibleChunksPerQuery = 4
	}
	if c.Delim == 0 {
		c.Delim = ','
	}
	if c.ReadBlockBytes <= 0 {
		c.ReadBlockBytes = 256 << 10
	}
	if c.PositionalMapCacheChunks <= 0 {
		c.PositionalMapCacheChunks = 64
	}
	if c.AdaptiveWorkers {
		if c.MinWorkers <= 0 {
			c.MinWorkers = 1
		}
		if c.MaxWorkers <= 0 {
			c.MaxWorkers = 4 * c.Workers
		}
		if c.MaxWorkers < c.MinWorkers {
			c.MaxWorkers = c.MinWorkers
		}
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	return c
}

// StageProfile accumulates time and chunk counts for one pipeline stage.
type StageProfile struct {
	Time   time.Duration
	Chunks int64
}

// PerChunk returns the average stage time per chunk.
func (s StageProfile) PerChunk() time.Duration {
	if s.Chunks == 0 {
		return 0
	}
	return s.Time / time.Duration(s.Chunks)
}

// Profile holds per-stage accumulators (the paper's Fig. 5 measurement).
// Consume is the engine-side evaluation time of delivered chunks — the
// stage the parallel delivery mode spreads across workers. ConsumeStall is
// the time the delivery producer spent waiting for a free consume worker
// / (Chunks counts fan-out hand-offs): the backpressure signal that tells the
// resource manager the consume stage, not conversion, is the bottleneck.
type Profile struct {
	Read         StageProfile
	Tokenize     StageProfile
	Parse        StageProfile
	Write        StageProfile
	Consume      StageProfile
	ConsumeStall StageProfile
}

// Sub returns p - o, for per-run deltas.
func (p Profile) Sub(o Profile) Profile {
	return Profile{
		Read:         StageProfile{p.Read.Time - o.Read.Time, p.Read.Chunks - o.Read.Chunks},
		Tokenize:     StageProfile{p.Tokenize.Time - o.Tokenize.Time, p.Tokenize.Chunks - o.Tokenize.Chunks},
		Parse:        StageProfile{p.Parse.Time - o.Parse.Time, p.Parse.Chunks - o.Parse.Chunks},
		Write:        StageProfile{p.Write.Time - o.Write.Time, p.Write.Chunks - o.Write.Chunks},
		Consume:      StageProfile{p.Consume.Time - o.Consume.Time, p.Consume.Chunks - o.Consume.Chunks},
		ConsumeStall: StageProfile{p.ConsumeStall.Time - o.ConsumeStall.Time, p.ConsumeStall.Chunks - o.ConsumeStall.Chunks},
	}
}

type profCounters struct {
	readNs, tokNs, parseNs, writeNs, consumeNs, consumeStallNs atomic.Int64
	readChunks, tokChunks, parseChunks, writeCh, consumeChunks atomic.Int64
	consumeStallCh                                             atomic.Int64
}

func (pc *profCounters) snapshot() Profile {
	return Profile{
		Read:         StageProfile{time.Duration(pc.readNs.Load()), pc.readChunks.Load()},
		Tokenize:     StageProfile{time.Duration(pc.tokNs.Load()), pc.tokChunks.Load()},
		Parse:        StageProfile{time.Duration(pc.parseNs.Load()), pc.parseChunks.Load()},
		Write:        StageProfile{time.Duration(pc.writeNs.Load()), pc.writeCh.Load()},
		Consume:      StageProfile{time.Duration(pc.consumeNs.Load()), pc.consumeChunks.Load()},
		ConsumeStall: StageProfile{time.Duration(pc.consumeStallNs.Load()), pc.consumeStallCh.Load()},
	}
}

// RunStats summarizes one query execution through the operator.
type RunStats struct {
	// Duration is the wall-clock time of the Run call.
	Duration time.Duration
	// DeliveredCache/DB/Raw count chunks delivered to the engine by
	// source: the binary cache, the database, or raw-file conversion.
	DeliveredCache int
	DeliveredDB    int
	DeliveredRaw   int
	// DeliveredPartial counts partial-width hits: chunks served by reading
	// their loaded column groups from the database and converting only the
	// missing groups from raw.
	DeliveredPartial int
	// SkippedChunks counts chunks excluded by min/max statistics.
	SkippedChunks int
	// WrittenDuringRun counts chunks loaded into the database while the
	// query executed (speculative/full/buffered/invisible writes).
	WrittenDuringRun int
	// GroupWritesDuringRun counts single column-group page writes issued by
	// the payoff-ranked speculative scheduler (SpecPayoff quanta).
	GroupWritesDuringRun int
	// FlushedAfterRun counts chunks queued for the safeguard flush that
	// runs after delivery completes (its writes overlap the next query's
	// cached-chunk processing, §4).
	FlushedAfterRun int
	// WorkersUsed is the pool size this run executed with (it varies
	// across queries under AdaptiveWorkers).
	WorkersUsed int
	// DiskReadBytes and DiskWriteBytes are the disk transfer totals during
	// the run. The disk is shared, so a previous query's in-flight
	// safeguard flush is attributed to the run that overlaps it.
	DiskReadBytes  int64
	DiskWriteBytes int64
	// ReadBlocked is the time READ spent blocked on a full text buffer —
	// the CPU-bound signal of §3.3.
	ReadBlocked time.Duration
	// TerminatedEarly reports that the run stopped before end-of-file
	// because the request's Satisfied signal fired (demand-driven
	// termination). ChunksSaved is how many known chunks were neither
	// delivered nor statistics-skipped as a result; undiscovered chunks of
	// an incompletely scanned file are not counted.
	TerminatedEarly bool
	ChunksSaved     int
	// Profile is the per-stage time delta for this run.
	Profile Profile
}

// Delivered returns the total chunks delivered to the engine.
func (s RunStats) Delivered() int {
	return s.DeliveredCache + s.DeliveredDB + s.DeliveredRaw + s.DeliveredPartial
}

// Operator is a SCANRAW instance attached to one raw file. It is created
// once and reused by every query over that file. Concurrent Run calls
// serialize — the file is scanned by one run at a time — so queries that
// arrive together should share a scan through RunShared, the multi-query
// processing the paper leaves as future work (§7).
type Operator struct {
	cfg Config
	// workers is the current pool size; it differs from cfg.Workers when
	// AdaptiveWorkers resizes the pool across queries. Guarded by runMu.
	workers int

	store  *dbstore.Store
	table  *dbstore.Table
	disk   storepkg.Disk
	tk     tok.Tokenizer
	parser parse.Parser
	cache  *cache.Cache
	cpu    *metrics.BusyCounter

	// pmCache holds positional maps across queries when
	// CachePositionalMaps is on. Offsets stay valid because chunk extents
	// are fixed once discovered.
	pmMu    sync.Mutex
	pmCache map[int]*chunk.PositionalMap

	prof profCounters

	// arbiter serializes READ and WRITE disk access at the scheduling
	// level (§3.2.1: "SCANRAW has to enforce that only one of READ or
	// WRITE accesses the disk at any particular instant").
	arbiter sync.Mutex

	// flushWG tracks the background safeguard flush; the next query's
	// disk reads wait for it (§4: "only the reading of new chunks has to
	// be delayed until flushing the cache is over").
	flushWG    sync.WaitGroup
	flushErrMu sync.Mutex
	flushErr   error

	runMu sync.Mutex // one query at a time
}

// New creates a SCANRAW operator for the table's raw file.
func New(store *dbstore.Store, table *dbstore.Table, cfg Config) *Operator {
	cfg = cfg.withDefaults()
	var ch *cache.Cache
	if cfg.UnbiasedCache {
		ch = cache.NewUnbiased(cfg.CacheChunks)
	} else {
		ch = cache.New(cfg.CacheChunks)
	}
	op := &Operator{
		cfg:     cfg,
		workers: cfg.Workers,
		store:   store,
		table:   table,
		disk:    store.Disk(),
		tk:      tok.Tokenizer{Delim: cfg.Delim, MinFields: table.Schema().NumColumns()},
		parser:  parse.Parser{Schema: table.Schema()},
		cache:   ch,
		cpu:     &metrics.BusyCounter{},
	}
	if cfg.CachePositionalMaps {
		op.pmCache = make(map[int]*chunk.PositionalMap)
	}
	return op
}

// cachedMap returns a cached positional map for chunk id: complete when it
// already covers upTo columns, or partial otherwise (the caller extends a
// copy — cached maps are shared across goroutines and must not be mutated).
func (o *Operator) cachedMap(id, upTo int) (pm *chunk.PositionalMap, complete bool) {
	if o.pmCache == nil {
		return nil, false
	}
	o.pmMu.Lock()
	defer o.pmMu.Unlock()
	if pm, ok := o.pmCache[id]; ok {
		return pm, pm.NumCols >= upTo
	}
	return nil, false
}

// cloneMap deep-copies a positional map so it can be extended privately.
func cloneMap(pm *chunk.PositionalMap) *chunk.PositionalMap {
	return &chunk.PositionalMap{
		NumRows: pm.NumRows,
		NumCols: pm.NumCols,
		Starts:  append([]int32(nil), pm.Starts...),
		Ends:    append([]int32(nil), pm.Ends...),
		LineEnd: append([]int32(nil), pm.LineEnd...),
	}
}

// storeMap caches a positional map, respecting the size bound (new entries
// are dropped once the cache is full — the bound protects binary-cache
// memory, which the paper prioritizes).
func (o *Operator) storeMap(id int, pm *chunk.PositionalMap) {
	if o.pmCache == nil {
		return
	}
	o.pmMu.Lock()
	defer o.pmMu.Unlock()
	if _, ok := o.pmCache[id]; ok || len(o.pmCache) < o.cfg.PositionalMapCacheChunks {
		o.pmCache[id] = pm
	}
}

// releaseMap recycles a positional map once PARSE is done with it — unless
// the map is the instance retained by the positional-map cache, whose
// offsets later queries will read.
func (o *Operator) releaseMap(id int, pm *chunk.PositionalMap) {
	if o.pmCache != nil {
		o.pmMu.Lock()
		retained := o.pmCache[id] == pm
		o.pmMu.Unlock()
		if retained {
			//lint:ignore poolpair the pm cache retains this instance; later queries read its offsets
			return
		}
	}
	chunk.PutPositionalMap(pm)
}

// tokenizeChunk runs TOKENIZE for one chunk on the given worker slot,
// consulting the positional-map cache when enabled. A complete cached map
// skips the scan entirely; a partial one is extended from its last
// recorded positions (§2, "find the position of the closest attribute
// already in the map and scan forward from there") — cheaper than
// re-tokenizing because the already-mapped prefix is not re-scanned.
func (o *Operator) tokenizeChunk(slot *workerSlot, tc *chunk.TextChunk, upTo int) (*chunk.PositionalMap, error) {
	cached, complete := o.cachedMap(tc.ID, upTo)
	if complete {
		o.prof.tokChunks.Add(1)
		return cached, nil
	}
	var pm *chunk.PositionalMap
	var err error
	d := o.cpuWork(slot, func() {
		// Extending skips the already-mapped prefix but costs more per
		// scanned byte than the straight-line tokenizer, so it only wins
		// when the cached map covers a substantial share of the target.
		if cached != nil && cached.NumCols*2 >= upTo {
			pm = cloneMap(cached)
			err = o.tk.Extend(tc, pm, upTo)
		} else {
			pm, err = o.tk.Tokenize(tc, upTo)
		}
	})
	o.prof.tokNs.Add(int64(d))
	if err != nil {
		return nil, err
	}
	o.prof.tokChunks.Add(1)
	o.storeMap(tc.ID, pm)
	return pm, nil
}

// fusedKernel returns the fused conversion kernel for the requested column
// set, or nil when conversion must run the two-stage tok+parse path:
//
//   - FusedKernels is FusedOff (the -fused=false escape hatch), or
//   - the positional-map cache is enabled. A fused kernel never
//     materializes the positional map, so there would be nothing to cache
//     — and a later query widening a cached partial map (tok.Extend)
//     needs the tok path's bookkeeping. The two optimizations target the
//     same redundant work; the explicit cache wins when it is on.
//
// The kernel registry always has a generic fused fallback, so selection
// only fails on requests the operator would itself reject.
func (o *Operator) fusedKernel(cols []int) *kernel.Kernel {
	if o.cfg.FusedKernels == FusedOff || o.pmCache != nil {
		return nil
	}
	k, err := kernel.For(o.table.Schema(), cols, o.cfg.Delim)
	if err != nil {
		return nil
	}
	return k
}

// Config returns the operator's effective configuration.
func (o *Operator) Config() Config { return o.cfg }

// Table returns the catalog table the operator feeds.
func (o *Operator) Table() *dbstore.Table { return o.table }

// Cache returns the operator's binary chunks cache.
func (o *Operator) Cache() *cache.Cache { return o.cache }

// CPU returns the worker busy-time counter (for resource-utilization
// tracing).
func (o *Operator) CPU() *metrics.BusyCounter { return o.cpu }

// ProfileSnapshot returns cumulative per-stage accounting.
func (o *Operator) ProfileSnapshot() Profile { return o.prof.snapshot() }

// WaitIdle blocks until any background safeguard flush completes. Intended
// for experiments that measure the amount of loaded data.
func (o *Operator) WaitIdle() { o.flushWG.Wait() }

// ChunkRange restricts a request to the chunks with Lo <= ID < Hi. Hi <= 0
// means unbounded above (to the end of the file). Ranges are what lets a
// fleet shard one logical table across peers: each worker scans only its
// assigned slice of the chunk ID space, and the coordinator stitches the
// slices back together in global chunk order.
type ChunkRange struct {
	Lo int
	Hi int
}

// Contains reports whether the range (nil = unrestricted) includes id.
func (r *ChunkRange) Contains(id int) bool {
	if r == nil {
		return true
	}
	return id >= r.Lo && (r.Hi <= 0 || id < r.Hi)
}

// start returns the first in-range chunk ID (0 for a nil range).
func (r *ChunkRange) start() int {
	if r == nil {
		return 0
	}
	return r.Lo
}

// Request describes one query execution over the operator's raw file.
type Request struct {
	// Columns lists the schema ordinals the query needs (selective
	// tokenizing/parsing). Must be non-empty and sorted ascending.
	Columns []int
	// Deliver receives every chunk exactly once. With an effective
	// consume parallelism of 1 (see ParallelConsume) it is called from a
	// single goroutine; with parallelism N > 1 it may be called from up
	// to N goroutines concurrently and must be safe for that.
	Deliver func(bc *BinaryChunk) error
	// Skip, when non-nil, is consulted for chunks with known metadata;
	// returning true skips the chunk entirely (min/max chunk elimination,
	// §3.3). Skipped chunks are not delivered. Skip may be consulted more
	// than once per chunk and must answer consistently enough for that —
	// in particular a skip decision, like Satisfied, must not flip back.
	Skip func(meta *dbstore.ChunkMeta) bool
	// Satisfied, when non-nil, is polled at chunk boundaries; once it
	// returns true the run stops issuing new chunks: READ exits, queued
	// conversion work is dropped, and in-flight chunks drain (already
	// converted chunks still enter the cache, so the safeguard flush keeps
	// the zero-cost speculative-loading guarantee). The signal must be
	// monotonic — true once means true forever — because stages poll it
	// racily. Chunks may still be delivered after it fires; a satisfied
	// consumer simply ignores them.
	Satisfied func() bool
	// ParallelConsume is the number of consume workers delivered chunks
	// fan out to. 0 falls back to Config.ConsumeWorkers; values <= 1
	// select the classic serial delivery path.
	ParallelConsume int
	// Range, when non-nil, restricts the scan to chunks with
	// Range.Lo <= ID < Range.Hi (Hi <= 0 = to end of file). Chunks outside
	// the range are neither delivered, skipped, nor counted: they are
	// outside this request's universe entirely. Known out-of-range chunks
	// are jumped over without reading; unknown ones are still discovered
	// (the byte stream must be carved to find the next boundary) but their
	// text is dropped before conversion.
	Range *ChunkRange
	// Order, when non-nil, replaces the file-order walk with an explicit
	// visit order: once chunk discovery is complete the callback receives
	// the total chunk count and must return a permutation of [0, n) — the
	// online-aggregation sampler returns a seeded random permutation so
	// every scan prefix is a uniform chunk sample. Ordered scans skip the
	// cached-first delivery phase (delivery order IS the contract), read
	// loaded chunks from the database and the rest from their raw extents,
	// and still honour Skip, Satisfied, and the safeguard flush. On a table
	// whose discovery is incomplete the operator first carves the remaining
	// chunk boundaries in one sequential pass (the unavoidable cost of
	// uniform sampling over an undiscovered byte stream). Order and Range
	// are mutually exclusive.
	Order func(numChunks int) []int
}

// BinaryChunk is re-exported so operator users do not need to import the
// chunk package for the common case.
type BinaryChunk = chunk.BinaryChunk

// workerSlot is one worker thread of the pool. It carries the simulated
// CPU's pacing debt: un-slept stretch time that accumulates until it is
// worth one sleep (time.Sleep has a ~1ms floor on many kernels; paying the
// stretch in aggregate keeps model time accurate without per-task jitter).
type workerSlot struct {
	debt time.Duration
}

// cpuSleepThreshold is the smallest pacing debt worth sleeping for.
const cpuSleepThreshold = 2 * time.Millisecond

// cpuPaySlice caps how much pacing debt one sleep pays, so the busy
// counter advances in small increments and utilization traces stay smooth.
const cpuPaySlice = 4 * time.Millisecond

// cpuWork runs fn on the given worker slot, stretching its duration by the
// CPUSlowdown factor via the slot's pacing debt, and accounts the busy
// time incrementally on the operator's CPU counter. It returns the nominal
// model-time duration of the task (real time x factor), which is what the
// profiles report.
func (o *Operator) cpuWork(slot *workerSlot, fn func()) time.Duration {
	start := time.Now()
	fn()
	real := time.Since(start)
	o.cpu.Add(real)
	f := o.cfg.CPUSlowdown
	if f <= 1 {
		return real
	}
	nominal := real * time.Duration(f)
	slot.debt += nominal - real
	for slot.debt >= cpuSleepThreshold {
		q := slot.debt
		if q > cpuPaySlice {
			q = cpuPaySlice
		}
		s := time.Now()
		time.Sleep(q)
		o.cpu.Add(q)
		slot.debt -= time.Since(s)
	}
	return nominal
}

// writeChunk stores the chunk's present columns into the database through
// the disk arbiter and marks catalog and cache state.
func (o *Operator) writeChunk(bc *BinaryChunk) error {
	o.arbiter.Lock()
	start := time.Now()
	err := o.store.WriteChunk(o.table, bc)
	o.prof.writeNs.Add(int64(time.Since(start)))
	o.arbiter.Unlock()
	if err != nil {
		return err
	}
	o.prof.writeCh.Add(1)
	o.cache.MarkLoaded(bc.ID)
	return nil
}

// writeChunkGroup stores one column group of a cached chunk through the
// disk arbiter — the payoff scheduler's write quantum. The cache entry is
// marked loaded only once the catalog covers every column the entry holds,
// so the safeguard flush still writes whatever groups remain.
func (o *Operator) writeChunkGroup(bc *BinaryChunk, cols []int) error {
	o.arbiter.Lock()
	start := time.Now()
	err := o.store.WriteChunkColumns(o.table, bc, cols)
	o.prof.writeNs.Add(int64(time.Since(start)))
	o.arbiter.Unlock()
	if err != nil {
		return err
	}
	if meta, ok := o.table.Chunk(bc.ID); ok && meta.LoadedAll(bc.Present()) {
		o.cache.MarkLoaded(bc.ID)
	}
	return nil
}
