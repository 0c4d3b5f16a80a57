package dbstore

import (
	"fmt"
	"sort"
	"time"

	"scanraw/internal/schema"
	"scanraw/internal/store"
)

// Durable catalog: replaying the manifest log rebuilds the Store, and every
// subsequent mutation is journaled back to it. The recovery ordering is:
//
//  1. Replay the manifest (checkpoint, then log; torn tail truncated).
//  2. Apply the records in order to an empty catalog. Records are idempotent
//     upserts; a RecTableCreate whose schema or fingerprint differs from the
//     live table resets the table, which is how a changed raw file discards
//     stale persisted state mid-log.
//  3. Verify every loaded column's page blob (existence + CRC). A missing or
//     damaged page clears just that loaded bit — the chunk re-converts from
//     raw on the next scan; nothing else is lost.
//  4. Attach the journal, so new mutations append.
//
// Only after all four steps is the store handed to the serving layer.

// checkpointThreshold is how many log records accumulate before
// MaybeCheckpoint compacts them into the snapshot.
const checkpointThreshold = 1024

// RecoveryReport summarizes what a warm start recovered.
type RecoveryReport struct {
	// TablesRecovered counts tables rebuilt from the manifest.
	TablesRecovered int
	// ChunksRecovered counts chunks that survived with at least one loaded
	// column — work the next scan does not redo.
	ChunksRecovered int
	// ChunksInvalidated counts loaded chunks dropped during recovery:
	// damaged or missing pages, table resets from a changed raw file, or
	// records that no longer applied.
	ChunksInvalidated int
	// RecoveryMS is the wall-clock duration of replay + verification.
	RecoveryMS int64
	// Replay echoes the manifest-level replay report (torn bytes etc.).
	Replay store.ReplayReport
}

// OpenDurable builds a Store on disk d by replaying the manifest, verifying
// recovered page blobs, and attaching the manifest as the store's journal.
func OpenDurable(d store.Disk, man *store.Manifest) (*Store, error) {
	start := time.Now()
	s := NewStore(d)
	recs, replayRep, err := man.Replay()
	if err != nil {
		return nil, fmt.Errorf("dbstore: replaying manifest: %w", err)
	}
	rep := RecoveryReport{Replay: replayRep}
	for _, r := range recs {
		s.applyRecord(r, &rep)
	}
	s.verifyPages(&rep)
	rep.TablesRecovered = len(s.tables)
	for _, t := range s.tables {
		rep.ChunksRecovered += countLoadedChunks(t)
	}
	rep.RecoveryMS = time.Since(start).Milliseconds()
	s.rec = rep
	// Attach the journal last: replay must not re-append the records it is
	// reading.
	s.journal = man
	for _, t := range s.tables {
		t.journal = man
	}
	return s, nil
}

// RecoveryStats returns the recovery report from OpenDurable (zero for
// stores that did not warm-start).
func (s *Store) RecoveryStats() RecoveryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rec
}

// applyRecord applies one manifest record to the in-memory catalog. Records
// that no longer apply (wrong table, out-of-range ordinals, conflicting
// geometry) are skipped, not fatal: recovery must always produce a usable
// catalog from any CRC-valid prefix.
func (s *Store) applyRecord(r store.Record, rep *RecoveryReport) {
	if r.Type == store.RecTableCreate {
		sch, err := schema.ParseSpec(r.Schema)
		if err != nil {
			return
		}
		if t, ok := s.tables[r.Table]; ok {
			if t.schema.Equal(sch) && t.fp.SameContent(r.Fingerprint) && t.rawFile == r.RawFile {
				return // idempotent replay
			}
			// The raw file changed between the old incarnation and this
			// record: everything persisted for the old one is stale,
			// including the workload weights (the schema may differ).
			rep.ChunksInvalidated += countLoadedChunks(t)
			delete(s.tables, r.Table)
			delete(s.workloads, r.Table)
		}
		t := &Table{name: r.Table, schema: sch, rawFile: r.RawFile, fp: r.Fingerprint, ckpt: &s.ckptMu}
		s.tables[r.Table] = t
		return
	}
	t, ok := s.tables[r.Table]
	if !ok {
		return
	}
	switch r.Type {
	case store.RecChunk:
		if _, err := t.ensureChunkLocked(r.Chunk, r.Rows, r.RawOff, r.RawLen); err != nil {
			rep.ChunksInvalidated++
		}
	case store.RecStats:
		_ = t.SetStats(r.Chunk, r.Col, statsFromRec(r.Stats))
	case store.RecLoaded:
		// Pre-colgroup manifests: one page blob per column, named by the
		// bare ordinal. Replays as legacy singleton groups.
		//lint:ignore journalorder recovery replay: the original append already proved the pages durable, the journal is nil until attached after replay, and verifyPages drops any page that fails its CRC
		_ = t.markLoadedGroups(r.Chunk, [][]int{r.Cols}, true)
	case store.RecLoadedGroup:
		//lint:ignore journalorder recovery replay: same as above — re-applying a loaded record writes no page, and verifyPages re-checks every blob before serving
		_ = t.markLoadedGroups(r.Chunk, [][]int{r.Cols}, false)
	case store.RecWorkload:
		if len(r.Weights) == t.schema.NumColumns() {
			s.workloads[r.Table] = append([]float64(nil), r.Weights...)
		}
	case store.RecComplete:
		_ = t.SetComplete()
	}
}

// verifyPages checks every recorded group's page blob(s) and drops groups
// whose pages are missing or fail their checksum — their columns silently
// fall back to conversion from raw. Runs single-threaded before the store
// is handed to the serving layer.
func (s *Store) verifyPages(rep *RecoveryReport) {
	for _, t := range s.tables {
		for _, m := range t.chunks {
			if m == nil {
				continue
			}
			damaged := false
			kept := m.Groups[:0]
			for _, g := range m.Groups {
				if s.groupOK(t.name, m.ID, g) {
					kept = append(kept, g)
				} else {
					damaged = true
				}
			}
			if !damaged {
				continue
			}
			m.Groups = kept
			for c := range m.Loaded {
				m.Loaded[c] = false
			}
			for _, g := range m.Groups {
				for _, c := range g.Cols {
					m.Loaded[c] = true
				}
			}
			t.remaskLocked(m)
			rep.ChunksInvalidated++
		}
	}
}

// groupOK reports whether a group's page blob(s) exist and pass their CRC:
// the single group-keyed page, or — for legacy groups — one bare-ordinal
// page per column.
func (s *Store) groupOK(table string, chunkID int, g GroupState) bool {
	if !g.Legacy {
		return s.pageOK(groupPageName(table, chunkID, g.Cols))
	}
	for _, c := range g.Cols {
		if !s.pageOK(pageName(table, chunkID, c)) {
			return false
		}
	}
	return true
}

// pageOK reports whether the named page blob exists and passes its CRC.
func (s *Store) pageOK(blob string) bool {
	_, err := s.readPage(blob)
	return err == nil
}

// countLoadedChunks counts chunks with at least one loaded column.
func countLoadedChunks(t *Table) int {
	n := 0
	for _, m := range t.chunks {
		if m != nil && m.LoadedAny() {
			n++
		}
	}
	return n
}

// EnsureTable is the durable-store entry point for staging a raw file: it
// reuses a recovered table when the schema and raw-file fingerprint still
// match (the warm-start path), and otherwise drops any stale persisted state
// and registers the table fresh.
func (s *Store) EnsureTable(name string, sch *schema.Schema, rawFile string, fp store.Fingerprint) (*Table, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if ok {
		if t.schema.Equal(sch) && t.fp.SameContent(fp) && t.rawFile == rawFile {
			return t, nil
		}
		s.mu.Lock()
		s.rec.ChunksInvalidated += countLoadedChunks(t)
		s.mu.Unlock()
		s.DropTable(name)
	}
	return s.createTable(name, sch, rawFile, fp)
}

// Checkpoint compacts the journal: it snapshots the whole catalog as records
// and asks the journal to atomically replace its checkpoint with them. Held
// exclusively against every mutate+append pair (Table.ckpt), so the snapshot
// is guaranteed to cover every record the truncation discards.
func (s *Store) Checkpoint() error {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return j.Checkpoint(s.snapshotRecords())
}

// MaybeCheckpoint compacts when the journal has accumulated enough records
// since the last checkpoint. Called from the chunk-write path so compaction
// cost amortizes over conversion work.
func (s *Store) MaybeCheckpoint() error {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j == nil || j.AppendsSinceCheckpoint() < checkpointThreshold {
		return nil
	}
	return s.Checkpoint()
}

// snapshotRecords serializes the entire catalog as an idempotent record
// sequence — replaying it from scratch reproduces the catalog.
func (s *Store) snapshotRecords() []store.Record {
	var recs []store.Record
	for _, t := range s.Tables() {
		t.mu.RLock()
		recs = append(recs, store.Record{
			Type: store.RecTableCreate, Table: t.name,
			RawFile: t.rawFile, Schema: t.schema.Spec(), Fingerprint: t.fp,
		})
		for _, m := range t.chunks {
			if m == nil {
				continue
			}
			recs = append(recs, store.Record{
				Type: store.RecChunk, Table: t.name,
				Chunk: m.ID, Rows: m.Rows, RawOff: m.RawOff, RawLen: m.RawLen,
			})
			for c, st := range m.Stats {
				if st.Valid {
					recs = append(recs, store.Record{
						Type: store.RecStats, Table: t.name,
						Chunk: m.ID, Col: c, Stats: statsToRec(st),
					})
				}
			}
			// Legacy groups re-snapshot as one RecLoaded so replay keeps
			// resolving them to bare-ordinal page names; each group page
			// keeps its own RecLoadedGroup.
			var legacy []int
			for _, g := range m.Groups {
				if g.Legacy {
					legacy = append(legacy, g.Cols...)
					continue
				}
				recs = append(recs, store.Record{
					Type: store.RecLoadedGroup, Table: t.name,
					Chunk: m.ID, Cols: append([]int(nil), g.Cols...),
				})
			}
			if len(legacy) > 0 {
				sort.Ints(legacy)
				recs = append(recs, store.Record{
					Type: store.RecLoaded, Table: t.name,
					Chunk: m.ID, Cols: legacy,
				})
			}
		}
		if t.complete {
			recs = append(recs, store.Record{Type: store.RecComplete, Table: t.name})
		}
		t.mu.RUnlock()
		s.mu.RLock()
		if w, ok := s.workloads[t.name]; ok {
			recs = append(recs, store.Record{
				Type: store.RecWorkload, Table: t.name,
				Weights: append([]float64(nil), w...),
			})
		}
		s.mu.RUnlock()
	}
	return recs
}

// statsToRec converts catalog statistics to their serialized form.
func statsToRec(s ColStats) store.ColStatsRec {
	return store.ColStatsRec{
		Valid: s.Valid, Type: uint8(s.Type),
		MinInt: s.MinInt, MaxInt: s.MaxInt,
		MinFloat: s.MinFloat, MaxFloat: s.MaxFloat,
		MinStr: s.MinStr, MaxStr: s.MaxStr,
		Rows: s.Rows, Distinct: s.Distinct,
	}
}

// statsFromRec inverts statsToRec.
func statsFromRec(r store.ColStatsRec) ColStats {
	return ColStats{
		Valid: r.Valid, Type: schema.Type(r.Type),
		MinInt: r.MinInt, MaxInt: r.MaxInt,
		MinFloat: r.MinFloat, MaxFloat: r.MaxFloat,
		MinStr: r.MinStr, MaxStr: r.MaxStr,
		Rows: r.Rows, Distinct: r.Distinct,
	}
}
