// Package scanraw implements SCANRAW, the paper's database physical
// operator for in-situ processing over raw files (§3): a parallel
// super-scalar pipeline whose stages — READ, CONVERT (the paper's TOKENIZE
// and PARSE, with MAP folded in, fused into one pass per chunk by
// internal/kernel), and WRITE — execute as asynchronous goroutines
// coordinated by a scheduler, moving chunks through bounded buffers as in
// Fig. 2 of the paper:
//
//	READ → [text chunks buffer] → CONVERT → [binary chunks cache] →
//	execution engine             ↘ WRITE → database
//
// CONVERT tasks run on a worker pool with destination-space-gated dispatch
// (a worker is assigned only when the result has somewhere to go,
// §3.2.1). WRITE is one routine whose schedule is the policy (momentsFor):
// external tables (never write), full load (write everything, right after
// conversion), buffered load (write on cache eviction), invisible loading (a
// fixed number of chunks per query), and the paper's contribution —
// speculative loading (§4), which writes the oldest unloaded cached chunk
// whenever the READ thread is blocked and the disk would otherwise idle,
// plus a safeguard flush of the cache at end of scan.
//
// An Operator is attached to a raw file, not to a query: its binary chunks
// cache, catalog statistics, and profile survive across queries (§3.3), and
// it morphs into a plain database heap scan as chunks get loaded.
package scanraw

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/cache"
	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/metrics"
	storepkg "scanraw/internal/store"
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

// ParseWritePolicy parses a -policy flag value: the short flag names, or
// any name String prints (what /query stats report).
func ParseWritePolicy(s string) (WritePolicy, error) {
	switch s {
	case "external", "external-tables":
		return ExternalTables, nil
	case "fullload", "load", "full-load":
		return FullLoad, nil
	case "buffered", "buffered-load":
		return BufferedLoad, nil
	case "speculative":
		return Speculative, nil
	case "invisible":
		return Invisible, nil
	}
	return 0, fmt.Errorf("scanraw: unknown write policy %q (want external, fullload, buffered, speculative or invisible)", s)
}

// What no caller sets differently is a constant, not a Config field.
const (
	invisibleChunksPerQuery = 4         // per-query loading bound of the Invisible policy
	readBlockBytes          = 256 << 10 // disk-read granularity of discovery scans
)

// writeMoments is a write policy resolved: the four moments at which the
// WRITE stage may store a converted chunk. Every policy is one row of
// momentsFor, and nothing else in the operator asks which policy is
// configured.
type writeMoments struct {
	// afterConvert is the per-run budget of chunks stored right after their
	// conversion, on the converting goroutine, before they are delivered.
	afterConvert int64
	// onEviction writes an unloaded victim of a cache insert before its
	// vectors are recycled.
	onEviction bool
	// idle spends disk-idle quanta — READ blocked on a full text buffer; for
	// an inline run, the gap before the next read — on one speculative write
	// each (specStep).
	idle bool
	// atEnd writes what the cache still holds unloaded once the scan is over:
	// the safeguard flush.
	atEnd bool
}

func momentsFor(p WritePolicy, safeguard bool) writeMoments {
	switch p {
	case FullLoad:
		return writeMoments{afterConvert: math.MaxInt64}
	case Invisible:
		return writeMoments{afterConvert: invisibleChunksPerQuery}
	case BufferedLoad:
		return writeMoments{onEviction: true, atEnd: safeguard}
	case Speculative:
		// The safeguard promises that conversion work done during a run is
		// never redone (§4), but the flush only sees what is still cached.
		// Eviction prefers loaded victims, so unloaded chunks survive to it —
		// except when every loaded entry is pinned mid-delivery; writing the
		// unloaded victim first keeps the promise unconditional.
		return writeMoments{idle: true, onEviction: safeguard, atEnd: safeguard}
	}
	return writeMoments{} // ExternalTables
}

// Config parameterizes a SCANRAW instance.
type Config struct {
	// Workers is the worker-pool size for conversion tasks. Zero selects
	// sequential execution: chunks are converted one at a time on the
	// calling goroutine (the paper's "0 worker threads" configuration).
	Workers int
	// ChunkLines is the number of lines per chunk, the unit of reading
	// and processing. The paper finds 2^17–2^19 optimal; default 2^13
	// (scaled with the data sizes used here).
	ChunkLines int
	// TextBufferChunks is the capacity of the text chunks buffer — how far
	// READ runs ahead of conversion. Default 8.
	TextBufferChunks int
	// CacheChunks is the binary chunks cache's budget, in full-width chunks
	// at 8 bytes a value: the cache counts the bytes its columns hold
	// (cache.New), so a chunk read back from int32 pages costs half a chunk,
	// and one with string columns — a 16-byte header a value plus its bytes
	// — may cost more than one. It also bounds, in chunks, the
	// delivered-but-unconsumed chunks of a run. Default 32.
	CacheChunks int
	// Policy selects the WRITE behaviour. Default ExternalTables.
	Policy WritePolicy
	// Safeguard enables the end-of-scan cache flush for Speculative and
	// BufferedLoad (§4, "safeguard mechanism").
	Safeguard bool
	// Delim is the field delimiter. Default ','.
	Delim byte
	// CollectStats records per-chunk min/max statistics in the catalog
	// while converting (§3.3). Default off.
	CollectStats bool
	// CPUSlowdown simulates slower cores: every conversion and consume
	// task occupies its worker for CPUSlowdown times its measured duration
	// (the real conversion plus a sleep for the remainder). Values <= 1
	// disable it. This is how experiments observe worker-count scaling on
	// hosts with fewer cores than the paper's 16: sleeps overlap across
	// goroutines regardless of core count, so the pipeline's concurrency
	// behaves as if each worker had its own (slow) core, in the same
	// model-time units the simulated disk uses.
	CPUSlowdown int
	// ConsumeWorkers accepts only 0 or 1: consume is serial (see
	// Request.Deliver), and a run under any other value fails. It stays only
	// because the benchmark harness sets it; ROADMAP item 2a deletes it
	// together with the harness's two lines that name it.
	ConsumeWorkers int
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
		c.TextBufferChunks = 8
	}
	if c.CacheChunks <= 0 {
		c.CacheChunks = 32
	}
	if c.Delim == 0 {
		c.Delim = ','
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
// Conversion is one fused pass, so all of its time lands on Parse; Tokenize
// is always zero and stays only so that stage sums written against the
// paper's four columns keep compiling. Consume is the engine-side
// evaluation time of delivered chunks.
type Profile struct {
	Read     StageProfile
	Tokenize StageProfile
	Parse    StageProfile
	Write    StageProfile
	Consume  StageProfile
}

// Sub returns p - o, for per-run deltas.
func (p Profile) Sub(o Profile) Profile {
	return Profile{
		Read:    StageProfile{p.Read.Time - o.Read.Time, p.Read.Chunks - o.Read.Chunks},
		Parse:   StageProfile{p.Parse.Time - o.Parse.Time, p.Parse.Chunks - o.Parse.Chunks},
		Write:   StageProfile{p.Write.Time - o.Write.Time, p.Write.Chunks - o.Write.Chunks},
		Consume: StageProfile{p.Consume.Time - o.Consume.Time, p.Consume.Chunks - o.Consume.Chunks},
	}
}

type profCounters struct {
	readNs, parseNs, writeNs, consumeNs             atomic.Int64
	readChunks, parseChunks, writeCh, consumeChunks atomic.Int64
}

func (pc *profCounters) snapshot() Profile {
	return Profile{
		Read:    StageProfile{time.Duration(pc.readNs.Load()), pc.readChunks.Load()},
		Parse:   StageProfile{time.Duration(pc.parseNs.Load()), pc.parseChunks.Load()},
		Write:   StageProfile{time.Duration(pc.writeNs.Load()), pc.writeCh.Load()},
		Consume: StageProfile{time.Duration(pc.consumeNs.Load()), pc.consumeChunks.Load()},
	}
}

// ScanReport is a scan's chunk accounting. RunStats embeds it, /exec's
// stats frame carries it, and a coordinator and /metrics sum it with Add.
type ScanReport struct {
	// DeliveredCache/DB/Raw count chunks delivered to the engine by
	// source: the binary cache, the database, or raw-file conversion.
	DeliveredCache int
	DeliveredDB    int
	DeliveredRaw   int
	// DeliveredPartial counts partial-width hits: chunks served by reading
	// their loaded columns from the database and converting only the
	// missing ones from raw.
	DeliveredPartial int
	// SkippedChunks counts chunks excluded by min/max statistics.
	SkippedChunks int
	// WrittenDuringRun counts chunks loaded into the database while the
	// query executed (speculative/full/buffered/invisible writes).
	WrittenDuringRun int
	// TerminatedEarly reports that the run stopped before end-of-file
	// because the request's Satisfied signal fired (demand-driven
	// termination). ChunksSaved is how many known chunks were neither
	// delivered nor statistics-skipped as a result; undiscovered chunks of
	// an incompletely scanned file are not counted.
	TerminatedEarly bool
	ChunksSaved     int
}

// Add folds another scan's report into r: counts sum, and r terminated
// early if either did.
func (r *ScanReport) Add(o ScanReport) {
	r.DeliveredCache += o.DeliveredCache
	r.DeliveredDB += o.DeliveredDB
	r.DeliveredRaw += o.DeliveredRaw
	r.DeliveredPartial += o.DeliveredPartial
	r.SkippedChunks += o.SkippedChunks
	r.WrittenDuringRun += o.WrittenDuringRun
	r.TerminatedEarly = r.TerminatedEarly || o.TerminatedEarly
	r.ChunksSaved += o.ChunksSaved
}

// Delivered returns the total chunks delivered to the engine.
func (r ScanReport) Delivered() int {
	return r.DeliveredCache + r.DeliveredDB + r.DeliveredRaw + r.DeliveredPartial
}

// RunStats summarizes one query execution through the operator.
type RunStats struct {
	// Duration is the wall-clock time of the Run call.
	Duration time.Duration
	ScanReport
	// GroupWritesDuringRun counts the columns written by payoff-ranked
	// speculation, one page each: each SpecPayoff quantum writes the chosen
	// chunk's wanted columns, however many, as one segment.
	GroupWritesDuringRun int
	// FlushedAfterRun counts chunks queued for the safeguard flush that
	// runs after delivery completes (its writes overlap the next query's
	// cached-chunk processing, §4).
	FlushedAfterRun int
	// DiskReadBytes and DiskWriteBytes are the disk transfer totals during
	// the run. The disk is shared, so a previous query's in-flight
	// safeguard flush is attributed to the run that overlaps it.
	DiskReadBytes  int64
	DiskWriteBytes int64
	// ReadBlocked is the time READ spent blocked on a full text buffer —
	// the CPU-bound signal of §3.3. It includes the speculative quanta the
	// driver spent while its send waited.
	ReadBlocked time.Duration
	// Profile is the per-stage time delta for this run.
	Profile Profile
}

// Operator is a SCANRAW instance attached to one raw file. It is created
// once and reused by every query over that file. Concurrent Run calls
// serialize — the file is scanned by one run at a time — so queries that
// arrive together should share a scan through RunSharedContext, the
// multi-query processing the paper leaves as future work (§7).
type Operator struct {
	cfg  Config
	when writeMoments // the write policy and the safeguard, resolved by New

	store *dbstore.Store
	table *dbstore.Table
	disk  storepkg.Disk
	cache *cache.Cache
	cpu   *metrics.BusyCounter

	prof profCounters

	// arbiter serializes READ and WRITE disk access at the scheduling
	// level (§3.2.1: "SCANRAW has to enforce that only one of READ or
	// WRITE accesses the disk at any particular instant"). It brackets
	// transfers, not CPU: a page read holds it for the ReadAt calls (fetch,
	// on the driver) and verifies and decodes outside (serve).
	arbiter sync.Mutex

	// textFree is the free list of raw-text buffers (scanner.go). It holds
	// what one pipelined run has out at once — the scanner's read-ahead, the
	// chunk in the driver's hands, a full text chunks buffer and one chunk per
	// worker — so a scan's buffers all survive to the next; a put beyond that
	// is left to the GC. textOut counts the buffers taken and not yet put
	// back, in invariants builds only.
	textFree chan []byte
	textOut  atomic.Int64

	// flushes tracks the safeguard flushes in flight; the next query's disk
	// reads wait for them (§4: "only the reading of new chunks has to be
	// delayed until flushing the cache is over"). A failed flush, or a
	// failed commit of a batch that filled up, reports on the next Run,
	// through flushErr.
	flushes    flushGate
	flushErrMu sync.Mutex
	flushErr   error

	// The open group commit: the segments of chunk writes not yet durable
	// (batch), and what each is to be credited with once it is (credits).
	// Guarded by batchMu, which is never held across a disk operation.
	batchMu sync.Mutex
	batch   dbstore.Commit
	credits []credit

	commits, chunksCommitted atomic.Int64

	runMu sync.Mutex // one query at a time
}

// New creates a SCANRAW operator for the table's raw file.
func New(store *dbstore.Store, table *dbstore.Table, cfg Config) *Operator {
	cfg = cfg.withDefaults()
	return &Operator{
		cfg:      cfg,
		when:     momentsFor(cfg.Policy, cfg.Safeguard),
		store:    store,
		table:    table,
		disk:     store.Disk(),
		cache:    cache.New(cfg.CacheChunks),
		cpu:      &metrics.BusyCounter{},
		textFree: make(chan []byte, cfg.TextBufferChunks+cfg.Workers+2),
	}
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

// WaitIdle blocks until the safeguard flushes in flight have completed, then
// commits whatever batch is still open, behind any commit in flight: once it
// returns, every chunk write issued so far is durable or has failed (a
// failure reports on the next Run). It is safe against concurrent queries. A
// drain calls it before its checkpoint; experiments call it to measure the
// amount of loaded data.
func (o *Operator) WaitIdle() {
	o.flushes.wait()
	if err := o.commit(true); err != nil {
		o.setFlushErr(err)
	}
}

// flushGate counts background flushes. Unlike a sync.WaitGroup's, a wait may
// overlap the start of another flush — Registry.Sweep and DB.WaitIdle wait
// while queries run and end — and it waits only for the flushes in flight
// when it was called. The zero value has none.
type flushGate struct {
	mu   sync.Mutex
	n    int
	idle chan struct{} // closed when n drops to 0
}

func (g *flushGate) start() {
	g.mu.Lock()
	if g.n == 0 {
		g.idle = make(chan struct{})
	}
	g.n++
	g.mu.Unlock()
}

func (g *flushGate) done() {
	g.mu.Lock()
	g.n--
	if g.n == 0 {
		close(g.idle)
	}
	g.mu.Unlock()
}

func (g *flushGate) wait() {
	g.mu.Lock()
	idle := g.idle
	g.mu.Unlock()
	if idle != nil {
		<-idle
	}
}

// LoadCommits returns how many group commits the operator has made durable
// and how many chunk writes they carried.
func (o *Operator) LoadCommits() (commits, chunks int64) {
	return o.commits.Load(), o.chunksCommitted.Load()
}

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
	// tokenizing/parsing). Must be non-empty and strictly ascending.
	Columns []int
	// Deliver receives every chunk exactly once. It is called one chunk at
	// a time, on the goroutine that called Run or RunContext, and returns
	// before the next call; an error fails the run.
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

	// counted lists, ascending and apart from Columns, the columns that only
	// a COUNT(<bare column>) names; only Member.Request sets it. A chunk
	// converts them where they are unloaded, since converting a field is
	// what validates it, and never reads them back where the catalog marks
	// them loaded, so Deliver may receive a chunk without them.
	counted []int
}

// convertSet returns what a chunk with nothing loaded converts: Columns and
// counted, ascending.
func (req Request) convertSet() []int {
	if req.counted == nil {
		return req.Columns
	}
	all := append(slices.Clone(req.Columns), req.counted...)
	slices.Sort(all)
	return all
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

// credit is what one chunk write in a batch is accounted with once its
// commit has returned: n added to ctr, a run's written or group-write
// counter (nil for the safeguard flush, which counts at queue time).
type credit struct {
	id  int
	ctr *atomic.Int64
	n   int64
}

// write is the WRITE stage's one storage routine, whatever the moment: it
// encodes the listed columns of the chunk — every present column when none
// are named — that are not loaded yet as one segment, on the calling
// goroutine and outside the disk arbiter, and adds the segment to the open
// batch. A batch that fills is committed on a goroutine of its own (commit);
// nothing waits for it but the next commit, which the arbiter puts behind it.
// The chunk counts as written — ctr advanced by n, its cache entry marked
// loaded once the catalog covers every column it holds — only when its
// commit's append has returned. Until then the entry is pending: no other
// moment picks it, a write of it is refused here, and an eviction drops it
// without a write. It reports whether it encoded anything.
func (o *Operator) write(bc *BinaryChunk, cols []int, ctr *atomic.Int64, n int64) (bool, error) {
	if cols == nil {
		cols = bc.Present()
	}
	if !o.cache.MarkPending(bc.ID) {
		return false, nil // loaded, or already in a batch
	}
	start := time.Now()
	defer func() { o.prof.writeNs.Add(int64(time.Since(start))) }()
	seg, err := o.store.EncodeSegment(o.table, bc, cols)
	if err != nil || seg == nil {
		var loaded []bool
		if meta, ok := o.table.Chunk(bc.ID); ok && err == nil {
			loaded = meta.Loaded
		}
		o.cache.Committed(bc.ID, loaded)
		return false, err
	}
	o.batchMu.Lock()
	o.batch.Add(seg)
	o.credits = append(o.credits, credit{id: bc.ID, ctr: ctr, n: n})
	full := o.batch.Full()
	o.batchMu.Unlock()
	if full {
		go o.commit(false) // a failure reports through flushErr
	}
	return true, nil
}

// commit makes the open batch durable, under the disk arbiter: one segment
// blob and one journal append (dbstore.WriteCommit), which carries the
// table's pending statistics too. Then, still under the arbiter, it settles
// the batch's chunk writes. Without force — the background commit of a
// batch that filled — only a full batch is committed (one that another
// commit overtook finds a batch it need not write yet), and a failure is
// also left in flushErr. Commits happen one at a time, in batch order, so
// once a commit returns every chunk write added before it was called is
// settled.
func (o *Operator) commit(force bool) error {
	o.arbiter.Lock()
	defer o.arbiter.Unlock()
	o.batchMu.Lock()
	if o.batch.Chunks() == 0 || !force && !o.batch.Full() {
		o.batchMu.Unlock()
		return nil
	}
	b, credits := o.batch, o.credits
	o.batch, o.credits = dbstore.Commit{}, nil
	o.batchMu.Unlock()
	start := time.Now()
	err := o.store.WriteCommit(o.table, &b)
	o.prof.writeNs.Add(int64(time.Since(start)))
	if err == nil {
		o.commits.Add(1)
		o.chunksCommitted.Add(int64(b.Chunks()))
		o.prof.writeCh.Add(int64(b.Chunks()))
	}
	o.settle(credits, err == nil)
	if err != nil && !force {
		// A background commit fails its own run: the run's closing commit
		// waits here behind it, and then reads flushErr.
		o.setFlushErr(err)
	}
	return err
}

// settle ends the listed chunk writes: each cache entry is marked loaded if
// the catalog now covers it, or becomes a write candidate again; a committed
// write is credited.
func (o *Operator) settle(credits []credit, committed bool) {
	for _, c := range credits {
		var loaded []bool
		if committed {
			if c.ctr != nil {
				c.ctr.Add(c.n)
			}
			if meta, ok := o.table.Chunk(c.id); ok {
				loaded = meta.Loaded
			}
		}
		o.cache.Committed(c.id, loaded)
	}
}

// writeCached is write for a cache-resident chunk the caller acquired: the
// pin keeps an eviction from recycling the vectors while they are being
// encoded, and is released here whatever the outcome.
func (o *Operator) writeCached(bc *BinaryChunk, cols []int, ctr *atomic.Int64, n int64) (bool, error) {
	wrote, err := o.write(bc, cols, ctr, n)
	if uerr := o.cache.Unpin(bc.ID); err == nil {
		err = uerr
	}
	return wrote, err
}
