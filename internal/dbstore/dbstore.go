// Package dbstore implements the database side of SCANRAW: the catalog, the
// column-oriented chunk storage on the (simulated) disk, per-chunk metadata
// with min/max statistics, loaded-chunk bookkeeping, and the page reads that
// serve chunks already converted to the binary representation.
//
// Storage layout follows the paper (§3.1): "In binary format, tuples are
// vertically partitioned along columns represented as arrays in memory.
// When written to disk, each column is assigned an independent set of pages
// which can be directly mapped into the in-memory array representation."
// Here a page holds one column group of one chunk, sealed with its own CRC;
// a chunk write's pages are one segment, and a group commit concatenates the
// segments of several chunk writes into one blob behind one journal append
// (segment.go) — durable operations, not bytes, are what loading costs on a
// real disk. The catalog
// records where each group's page lies, so partial loading — some columns of
// some chunks — still needs no tuple rewriting (the column-store
// schema-expansion argument of §2) and a read transfers only the pages that
// cover the requested columns.
package dbstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"scanraw/internal/schema"
	"scanraw/internal/store"
	"scanraw/internal/wire"
)

// Journal receives a durable record for every catalog mutation. It is the
// write-ahead half of crash safety: a segment blob is written first, then the
// metadata record is appended, so a replayed journal never references data
// that is not on disk. *store.Manifest implements it; a nil journal (the
// default, used by simulations and tests) makes the store purely in-memory.
type Journal interface {
	Append(recs ...store.Record) error
	Checkpoint(recs []store.Record) error
	AppendsSinceCheckpoint() int64
}

// ChunkMeta is the catalog record for one chunk of one table. The fields
// are the statistics SCANRAW collects during conversion: where the chunk
// starts in the raw file, how many tuples it holds, per-column min/max, and
// which columns have been loaded into the database.
type ChunkMeta struct {
	ID     int
	Rows   int
	RawOff int64 // byte offset of the chunk in the raw file
	RawLen int64 // byte length of the chunk in the raw file

	Stats  []ColStats // indexed by schema ordinal
	Loaded []bool     // indexed by schema ordinal; union of Groups
	Groups []GroupState

	// maskKey is the table mask-index key of this chunk's current loaded
	// set ("" while nothing is loaded); maintained by remaskLocked.
	maskKey string
	// journaled reports that the chunk's RecChunk geometry record is in the
	// journal — appended, replayed or checkpointed. Until then the record is
	// pending and rides in the chunk's next append (Table.journalAppend).
	journaled bool
}

// GroupState locates one durable column group of a chunk: the ordinals it
// holds and the byte range of its sealed page inside a segment blob. Loaded
// is always the union of the group column sets — readers that only care
// whether a column is available keep using it; the group list is what maps
// columns back to bytes on disk. Groups of one segment are contiguous in
// ChunkMeta.Groups.
type GroupState struct {
	Cols []int
	// Seg names the segment blob inside the chunk's directory; Off and Len
	// are the sealed page's range in it. The two layouts that predate
	// segments — one blob per column, one blob per group — are segments
	// holding a single group at offset 0.
	Seg string
	Off int64
	Len int64
	// Bare marks a pre-colgroup page, whose payload is the column's vector
	// alone rather than a group page.
	Bare bool
}

// clone returns a deep copy so callers can inspect metadata without racing
// against catalog updates.
func (m *ChunkMeta) clone() *ChunkMeta {
	c := *m
	c.Stats = append([]ColStats(nil), m.Stats...)
	c.Loaded = append([]bool(nil), m.Loaded...)
	c.Groups = append([]GroupState(nil), m.Groups...)
	for i := range c.Groups {
		c.Groups[i].Cols = append([]int(nil), c.Groups[i].Cols...)
	}
	return &c
}

// LoadedAll reports whether every listed column ordinal is loaded.
func (m *ChunkMeta) LoadedAll(cols []int) bool {
	for _, c := range cols {
		if c < 0 || c >= len(m.Loaded) || !m.Loaded[c] {
			return false
		}
	}
	return true
}

// LoadedAny reports whether at least one column is loaded.
func (m *ChunkMeta) LoadedAny() bool {
	for _, l := range m.Loaded {
		if l {
			return true
		}
	}
	return false
}

// Table is a catalog entry linking a relation schema to a raw file and the
// chunk metadata discovered while processing it.
type Table struct {
	name    string
	schema  *schema.Schema
	rawFile string
	fp      store.Fingerprint // raw file fingerprint at staging time (durable stores)

	mu       sync.RWMutex
	chunks   []*ChunkMeta
	complete bool // true once the raw file has been fully scanned once

	// masks indexes chunks by their loaded-column set, so CountLoaded — the
	// cached-path probe every query makes — is O(distinct masks) instead of
	// a walk over every chunk under the table lock. Chunks with no loaded
	// column are not tracked. Guarded by mu.
	masks map[string]*maskCount

	// journal, when non-nil, receives the records of each mutation — except
	// chunk discovery, whose geometry record waits for the chunk's next
	// append (ChunkMeta.journaled), and statistics, which wait in pending.
	// Appends happen after t.mu is released: the manifest serializes its own
	// writes, and records are idempotent upserts, so replay order differing
	// from lock-acquisition order within a chunk is harmless.
	journal Journal
	// pending holds the RecStats records not yet journaled. They ride the
	// table's next append — a commit, RecComplete, or JournalPending at the
	// end of a scan — so statistics cost no durable operation of their own.
	// A crash before then loses statistics only. Guarded by mu.
	pending []store.Record
	// commitSeq is the sequence number of the table's next commit blob: past
	// every one a replayed record names, so no commit overwrites a blob the
	// journal references. Guarded by mu.
	commitSeq int64
	// ckpt is the owning store's checkpoint lock. Mutators hold it shared
	// across the memory-update + journal-append pair so a checkpoint (which
	// holds it exclusively) never snapshots a mutation whose record could
	// land in the log after the snapshot but before the truncate — the one
	// interleaving that would lose a record.
	ckpt *sync.RWMutex
}

// maskCount is one loaded-column-set equivalence class: the set itself and
// how many chunks currently have exactly that set loaded.
type maskCount struct {
	loaded []bool
	n      int
}

// remaskLocked moves a chunk between mask-index buckets after its loaded
// set changed. Caller holds t.mu.
func (t *Table) remaskLocked(m *ChunkMeta) {
	if old := m.maskKey; old != "" {
		if mc := t.masks[old]; mc != nil {
			mc.n--
			if mc.n == 0 {
				delete(t.masks, old)
			}
		}
	}
	var cols []int
	for c, l := range m.Loaded {
		if l {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		m.maskKey = ""
		return
	}
	key := EncodeColGroupKey(cols)
	m.maskKey = key
	if t.masks == nil {
		t.masks = make(map[string]*maskCount)
	}
	mc := t.masks[key]
	if mc == nil {
		mc = &maskCount{loaded: append([]bool(nil), m.Loaded...)}
		t.masks[key] = mc
	}
	mc.n++
}

// journalLock enters a mutate+append critical section against checkpoints.
// It returns the release func; a no-op when the table has no journal.
func (t *Table) journalLock() func() {
	if t.journal == nil || t.ckpt == nil {
		return func() {}
	}
	t.ckpt.RLock()
	return t.ckpt.RUnlock
}

// journalAppend forwards records to the table's journal, if any, in one
// append: first the geometry record of every chunk whose RecChunk is still
// pending, among the listed chunks and those with pending statistics, then
// the pending statistics, then recs — so replay sees RecChunk before
// RecStats before anything else. Once the append is durable those chunks
// are journaled and the statistics no longer pending; a failed append keeps
// them pending. Entries of chunks may be nil.
func (t *Table) journalAppend(chunks []*ChunkMeta, recs ...store.Record) error {
	if t.journal == nil {
		return nil
	}
	t.mu.Lock()
	stats := t.pending
	t.pending = nil
	for _, r := range stats {
		chunks = append(chunks, t.chunks[r.Chunk])
	}
	var out []store.Record
	seen := make(map[*ChunkMeta]bool, len(chunks))
	for _, m := range chunks {
		if m != nil && !m.journaled && !seen[m] {
			seen[m] = true
			out = append(out, t.chunkRecord(m))
		}
	}
	t.mu.Unlock()
	out = append(append(out, stats...), recs...)
	if len(out) == 0 {
		return nil
	}
	if err := t.journal.Append(out...); err != nil {
		t.mu.Lock()
		t.pending = append(stats, t.pending...)
		t.mu.Unlock()
		return err
	}
	t.mu.Lock()
	for m := range seen {
		m.journaled = true
	}
	t.mu.Unlock()
	return nil
}

// JournalPending appends whatever statistics are still pending, in one
// append; with none pending it does nothing. A scan calls it at its end, so
// a scan that loads nothing still journals its statistics once.
func (t *Table) JournalPending() error {
	defer t.journalLock()()
	return t.journalAppend(nil)
}

// HasPending reports whether statistics are waiting for an append.
func (t *Table) HasPending() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pending) > 0
}

// chunkRecord is the chunk's geometry record. Caller holds t.mu.
func (t *Table) chunkRecord(m *ChunkMeta) store.Record {
	return store.Record{
		Type: store.RecChunk, Table: t.name,
		Chunk: m.ID, Rows: m.Rows, RawOff: m.RawOff, RawLen: m.RawLen,
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// RawFile returns the disk blob name of the backing raw file.
func (t *Table) RawFile() string { return t.rawFile }

// Fingerprint returns the raw file's fingerprint recorded at staging time
// (zero for non-durable stores).
func (t *Table) Fingerprint() store.Fingerprint { return t.fp }

// EnsureChunk records the discovery of chunk id (its tuple count and raw
// file extent). Re-registering an existing chunk with identical geometry is
// a no-op; conflicting geometry is an error (it would mean the raw file
// changed underneath us). Discovery alone is not journaled: the geometry
// record rides in the first append that depends on it — the one carrying
// the chunk's statistics or its first segment, or the table's completion —
// and a checkpoint covers whatever is still pending. A crash before any of
// those loses only what the next scan rediscovers while reading the file.
func (t *Table) EnsureChunk(id, rows int, rawOff, rawLen int64) error {
	defer t.journalLock()()
	return t.ensureChunkLocked(id, rows, rawOff, rawLen)
}

func (t *Table) ensureChunkLocked(id, rows int, rawOff, rawLen int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.chunks) <= id {
		t.chunks = append(t.chunks, nil)
	}
	if m := t.chunks[id]; m != nil {
		if m.Rows != rows || m.RawOff != rawOff || m.RawLen != rawLen {
			return fmt.Errorf("dbstore: chunk %d re-registered with different geometry (%d rows @%d+%d vs %d rows @%d+%d)",
				id, rows, rawOff, rawLen, m.Rows, m.RawOff, m.RawLen)
		}
		return nil
	}
	n := t.schema.NumColumns()
	t.chunks[id] = &ChunkMeta{
		ID: id, Rows: rows, RawOff: rawOff, RawLen: rawLen,
		Stats:  make([]ColStats, n),
		Loaded: make([]bool, n),
	}
	return nil
}

// SetComplete marks that the raw file has been scanned end to end, so the
// catalog now knows every chunk boundary.
func (t *Table) SetComplete() error {
	defer t.journalLock()()
	t.mu.Lock()
	if t.complete {
		t.mu.Unlock()
		return nil
	}
	t.complete = true
	chunks := append([]*ChunkMeta(nil), t.chunks...)
	t.mu.Unlock()
	// A complete table promises every chunk boundary: the geometry records
	// still pending go out in the same append.
	return t.journalAppend(chunks, store.Record{Type: store.RecComplete, Table: t.name})
}

// Complete reports whether all chunk boundaries are known.
func (t *Table) Complete() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.complete
}

// NumChunks returns the number of registered chunks.
func (t *Table) NumChunks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}

// Chunk returns a copy of the metadata for chunk id.
func (t *Table) Chunk(id int) (*ChunkMeta, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.chunks) || t.chunks[id] == nil {
		return nil, false
	}
	return t.chunks[id].clone(), true
}

// SetChunkStats records conversion-time statistics for the listed columns of
// one chunk — stats[i] describes column cols[i]. A durable table journals
// them with its next append (Table.pending), not on their own.
func (t *Table) SetChunkStats(id int, cols []int, stats []ColStats) error {
	// Under the checkpoint lock, so a snapshot that misses the statistics
	// cannot drop their records from pending either.
	defer t.journalLock()()
	if _, err := t.setStats(id, cols, stats); err != nil || t.journal == nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range cols {
		t.pending = append(t.pending, store.Record{
			Type: store.RecStats, Table: t.name,
			Chunk: id, Col: c, Stats: statsToRec(stats[i]),
		})
	}
	return nil
}

// setStats is the in-memory half of SetChunkStats, shared with replay.
func (t *Table) setStats(id int, cols []int, stats []ColStats) (*ChunkMeta, error) {
	if len(cols) != len(stats) {
		return nil, fmt.Errorf("dbstore: SetChunkStats given %d columns and %d statistics", len(cols), len(stats))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.chunks) || t.chunks[id] == nil {
		return nil, fmt.Errorf("dbstore: SetChunkStats on unknown chunk %d", id)
	}
	m := t.chunks[id]
	for _, c := range cols {
		if c < 0 || c >= len(m.Stats) {
			return nil, fmt.Errorf("dbstore: SetChunkStats column %d out of range", c)
		}
	}
	for i, c := range cols {
		m.Stats[c] = stats[i]
	}
	return m, nil
}

// EstimateRangeRows estimates how many tuples have column col in [lo, hi],
// summing per-chunk uniform interpolations over the catalog statistics
// (§3.3: "the second use case for statistics is cardinality estimation for
// traditional query optimization"). Chunks without statistics contribute
// their full row count when known, so the estimate degrades conservatively
// toward "everything matches". The second result is the total row count
// covered by the catalog.
func (t *Table) EstimateRangeRows(col int, lo, hi int64) (estimate float64, totalRows int64, err error) {
	if col < 0 || col >= t.schema.NumColumns() {
		return 0, 0, fmt.Errorf("dbstore: column %d out of range", col)
	}
	if lo > hi {
		return 0, 0, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, m := range t.chunks {
		if m == nil {
			continue
		}
		totalRows += int64(m.Rows)
		s := m.Stats[col]
		if !s.Valid {
			estimate += float64(m.Rows)
			continue
		}
		// Stats may cover fewer rows than the chunk (older partial
		// conversions); scale the overlap up to the chunk size.
		ov := s.estimateOverlap(lo, hi)
		if s.Rows > 0 && int64(m.Rows) != s.Rows {
			ov *= float64(m.Rows) / float64(s.Rows)
		}
		estimate += ov
	}
	return estimate, totalRows, nil
}

// EstimateDistinct returns the estimated number of distinct values of a
// column per chunk summed across chunks — an upper bound on the table-wide
// distinct count (per-chunk sketches cannot be unioned exactly once stored
// as scalars).
func (t *Table) EstimateDistinct(col int) (int64, error) {
	if col < 0 || col >= t.schema.NumColumns() {
		return 0, fmt.Errorf("dbstore: column %d out of range", col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, m := range t.chunks {
		if m == nil {
			continue
		}
		total += m.Stats[col].Distinct
	}
	return total, nil
}

// LoadedChunks returns the IDs of chunks whose listed columns are all
// loaded.
func (t *Table) LoadedChunks(cols []int) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int
	for _, m := range t.chunks {
		if m != nil && m.LoadedAll(cols) {
			out = append(out, m.ID)
		}
	}
	return out
}

// CountLoaded returns how many chunks have all listed columns loaded. It
// answers from the mask index — O(distinct loaded-column sets), not
// O(chunks) — because it is the cached-path probe on every query.
func (t *Table) CountLoaded(cols []int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, mc := range t.masks {
		covered := true
		for _, c := range cols {
			if c < 0 || c >= len(mc.loaded) || !mc.loaded[c] {
				covered = false
				break
			}
		}
		if covered {
			n += mc.n
		}
	}
	return n
}

// FullyLoaded reports whether the discovery is complete and every chunk has
// every column loaded — the condition under which a SCANRAW instance is
// deleted and the table becomes a plain database table (paper §3.3).
func (t *Table) FullyLoaded() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.complete || len(t.chunks) == 0 {
		return false
	}
	for _, m := range t.chunks {
		if m == nil {
			return false
		}
		for _, l := range m.Loaded {
			if !l {
				return false
			}
		}
	}
	return true
}

// Store is the database storage manager: catalog plus column pages on a
// disk.
type Store struct {
	disk store.Disk

	mu      sync.RWMutex
	tables  map[string]*Table
	journal Journal
	rec     RecoveryReport

	// groupWidth is the column-group width for new pages (1 = one page per
	// column, 0 = full-width). Guarded by mu.
	groupWidth int

	// workloads holds per-table decayed column-access weights (the workload
	// tracker's persisted state), keyed by table name. Guarded by mu.
	workloads map[string][]float64

	// ckptMu orders catalog mutations against checkpoint compaction; see
	// Table.ckpt.
	ckptMu sync.RWMutex
}

// NewStore creates an empty store on the given disk.
func NewStore(d store.Disk) *Store {
	return &Store{disk: d, tables: make(map[string]*Table), groupWidth: 1, workloads: make(map[string][]float64)}
}

// Disk returns the underlying disk.
func (s *Store) Disk() store.Disk { return s.disk }

// CreateTable registers a table linking sch to the raw file blob rawFile.
// Durable stores journal the registration with a zero fingerprint; use
// EnsureTable to record the raw file's fingerprint so a restart can detect
// content changes.
func (s *Store) CreateTable(name string, sch *schema.Schema, rawFile string) (*Table, error) {
	return s.createTable(name, sch, rawFile, store.Fingerprint{})
}

func (s *Store) createTable(name string, sch *schema.Schema, rawFile string, fp store.Fingerprint) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("dbstore: empty table name")
	}
	s.mu.Lock()
	if _, dup := s.tables[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("dbstore: table %q already exists", name)
	}
	t := &Table{name: name, schema: sch, rawFile: rawFile, fp: fp, journal: s.journal, ckpt: &s.ckptMu}
	s.tables[name] = t
	s.mu.Unlock()
	defer t.journalLock()()
	if err := t.journalAppend(nil, store.Record{
		Type: store.RecTableCreate, Table: name,
		RawFile: rawFile, Schema: sch.Spec(), Fingerprint: fp,
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// Table looks a table up by name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns every registered table, sorted by name — the catalog
// listing a serving endpoint enumerates.
func (s *Store) Tables() []*Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// DropTable removes a table and deletes its pages from disk.
func (s *Store) DropTable(name string) {
	s.mu.Lock()
	t := s.tables[name]
	delete(s.tables, name)
	delete(s.workloads, name)
	s.mu.Unlock()
	if t == nil {
		return
	}
	for _, blob := range s.disk.List(pagePrefix(name)) {
		s.disk.Delete(blob)
	}
}

func pagePrefix(table string) string { return fmt.Sprintf("db/%s/", table) }

// Pages carry a CRC32-C checksum so silent corruption on the storage
// device is detected at read time instead of surfacing as wrong query
// answers. Each group page of a segment is sealed on its own, so damage
// costs the groups it touches and nothing else.

// sealPage prefixes the payload with its checksum.
func sealPage(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(payload)), wire.Checksum(payload))
	return append(out, payload...)
}

// openPage verifies and strips the checksum.
func openPage(p []byte) ([]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("dbstore: page too short for checksum (%d bytes)", len(p))
	}
	want := binary.LittleEndian.Uint32(p)
	payload := p[4:]
	if got := wire.Checksum(payload); got != want {
		return nil, fmt.Errorf("dbstore: page checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// SetWorkload durably records a table's per-column access weights (the
// workload tracker's decayed counters). The latest record wins on replay;
// the serving layer persists periodically, so a crash loses at most the
// accesses since the last snapshot — an acceptable loss for a statistic
// that only ranks speculation.
func (s *Store) SetWorkload(table string, weights []float64) error {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j != nil {
		s.ckptMu.RLock()
		defer s.ckptMu.RUnlock()
	}
	w := append([]float64(nil), weights...)
	s.mu.Lock()
	s.workloads[table] = w
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Append(store.Record{Type: store.RecWorkload, Table: table, Weights: w})
}

// Workload returns the recorded per-column access weights for a table, or
// nil when none were ever persisted.
func (s *Store) Workload(table string) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]float64(nil), s.workloads[table]...)
}

// Fleet configuration persistence. A coordinator records its fleet
// description (peer addresses and table→chunk-range ownership) alongside
// the durable catalog, so a restart serves the same fleet without the
// config file. The blob is checksummed like database pages: a torn or
// corrupted fleet record must fail loudly, not route queries wrong.

// fleetBlob is the durable fleet-config location on the store's disk.
const fleetBlob = "db/_fleet"

// SaveFleetConfig durably records the serialized fleet configuration.
func (s *Store) SaveFleetConfig(data []byte) error {
	return s.disk.WriteBlob(fleetBlob, sealPage(data))
}

// LoadFleetConfig returns the recorded fleet configuration, or ok=false
// when none was ever saved. A corrupted record is an error.
func (s *Store) LoadFleetConfig() (data []byte, ok bool, err error) {
	if !s.disk.Exists(fleetBlob) {
		return nil, false, nil
	}
	p, err := s.disk.ReadBlob(fleetBlob)
	if err != nil {
		return nil, false, fmt.Errorf("dbstore: reading %s: %w", fleetBlob, err)
	}
	if data, err = openPage(p); err != nil {
		return nil, false, fmt.Errorf("dbstore: %s: %w", fleetBlob, err)
	}
	return data, true, nil
}
