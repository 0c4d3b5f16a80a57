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
//  3. Verify every recorded group: one read per segment blob, then a range
//     and CRC check per group page in it. A damaged page drops just that
//     group's loaded bits, a missing or short blob the groups it no longer
//     holds — those columns re-convert from raw on the next scan; nothing
//     else is lost.
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
// recovered segments, and attaching the manifest as the store's journal.
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
	s.verifySegments(&rep)
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

// Syncs returns how many fsyncs the store's disk and journal have issued,
// and the time spent in them: what durability costs beyond the bytes. A
// store on memory reports zero.
func (s *Store) Syncs() (n int64, d time.Duration) {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	for _, x := range []any{s.disk, j} {
		if sc, ok := x.(interface{ Syncs() (int64, time.Duration) }); ok {
			xn, xd := sc.Syncs()
			n, d = n+xn, d+xd
		}
	}
	return n, d
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
		if err := t.ensureChunkLocked(r.Chunk, r.Rows, r.RawOff, r.RawLen); err != nil {
			rep.ChunksInvalidated++
		} else {
			t.markJournaledLocked(r.Chunk)
		}
	case store.RecStats:
		if st, ok := statsFromRec(r.Stats); ok {
			_, _ = t.setStats(r.Chunk, []int{r.Col}, []ColStats{st})
		}
	case store.RecLoaded:
		// Pre-colgroup manifests: one blob per column, named by the bare
		// ordinal, holding the column's vector alone.
		for _, c := range r.Cols {
			_, _ = t.addSegment(r.Chunk, []GroupState{{Cols: []int{c}, Seg: barePageSeg(c), Len: wholeBlob, Bare: true}})
		}
	case store.RecLoadedGroup:
		// PR 8–17 manifests: one blob per group page, named by its columns.
		_, _ = t.addSegment(r.Chunk, []GroupState{{Cols: r.Cols, Seg: groupPageSeg(r.Cols), Len: wholeBlob}})
	case store.RecSegment:
		if seq, ok := commitSeq(r.Seg); ok {
			t.commitSeq = max(t.commitSeq, seq+1)
		}
		groups := make([]GroupState, len(r.Groups))
		for i, g := range r.Groups {
			groups[i] = GroupState{Cols: g.Cols, Seg: r.Seg, Off: g.Off, Len: g.Len}
		}
		_, _ = t.addSegment(r.Chunk, groups)
	case store.RecWorkload:
		if len(r.Weights) == t.schema.NumColumns() {
			s.workloads[r.Table] = append([]float64(nil), r.Weights...)
		}
	case store.RecComplete:
		_ = t.SetComplete()
	}
}

// verifySegments checks every recorded group against the bytes on disk —
// one read per segment of each chunk (a chunk's groups of one segment are
// contiguous): the span of a commit blob the chunk's groups cover, or the
// whole blob of an older layout — then a range and CRC check per group page,
// and drops the groups that fail: their columns silently fall back to
// conversion from raw. A replayed pre-segment group learns its page's length
// here. Runs single-threaded before the store is handed to the serving layer.
func (s *Store) verifySegments(rep *RecoveryReport) {
	for _, t := range s.tables {
		for id, m := range t.chunks {
			if m == nil {
				continue
			}
			kept := make([]GroupState, 0, len(m.Groups))
			for i := 0; i < len(m.Groups); {
				j := i + 1
				for j < len(m.Groups) && m.Groups[j].Seg == m.Groups[i].Seg {
					j++
				}
				base, blob := s.readSegment(t.name, m.ID, m.Groups[i:j])
				for _, g := range m.Groups[i:j] {
					if g.Len == wholeBlob {
						g.Len = base + int64(len(blob)) - g.Off
					}
					lo, hi := g.Off-base, g.Off-base+g.Len
					if g.Off < base || g.Len < 0 || hi > int64(len(blob)) {
						continue
					}
					if _, err := openPage(blob[lo:hi]); err != nil {
						continue
					}
					kept = append(kept, g)
				}
				i = j
			}
			// Published even when every group survives: an older layout's
			// group has learned its length.
			n := *m
			n.Groups = kept
			if len(kept) != len(m.Groups) {
				t.reloadLocked(&n)
				rep.ChunksInvalidated++
			}
			t.chunks[id] = &n
		}
	}
}

// readSegment reads what groups — one chunk's groups of one segment — need
// to be verified: the bytes of the blob from base on, as many as there are.
// A commit blob is read over the span of the groups alone, an older layout's
// blob whole. A missing blob reads as empty, so every group fails its range
// check.
func (s *Store) readSegment(table string, id int, groups []GroupState) (base int64, blob []byte) {
	name := segBlob(table, id, groups[0].Seg)
	if _, ok := commitSeq(groups[0].Seg); !ok {
		blob, _ = s.disk.ReadBlob(name)
		return 0, blob
	}
	lo, hi := groups[0].Off, groups[0].Off+groups[0].Len
	for _, g := range groups[1:] {
		lo, hi = min(lo, g.Off), max(hi, g.Off+g.Len)
	}
	if lo < 0 || hi <= lo {
		return 0, nil
	}
	blob = make([]byte, hi-lo)
	n, err := s.disk.ReadAt(name, blob, lo)
	if err != nil {
		return 0, nil
	}
	return lo, blob[:n]
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
	if err := j.Checkpoint(s.snapshotRecords()); err != nil {
		return err
	}
	// The snapshot carried every chunk's geometry and statistics: none is
	// pending any more.
	for _, t := range s.Tables() {
		t.mu.Lock()
		for id := range t.chunks {
			t.markJournaledLocked(id)
		}
		t.pending = nil
		t.mu.Unlock()
	}
	return nil
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
			recs = append(recs, t.chunkRecord(m))
			for c, st := range m.Stats {
				if st.Valid {
					recs = append(recs, store.Record{
						Type: store.RecStats, Table: t.name,
						Chunk: m.ID, Col: c, Stats: statsToRec(st),
					})
				}
			}
			// One RecSegment per segment (its groups are contiguous). Bare
			// pages re-snapshot as one RecLoaded: the record type is what
			// says their payload is a lone vector.
			var bare []int
			for i, g := range m.Groups {
				if g.Bare {
					bare = append(bare, g.Cols...)
					continue
				}
				if i == 0 || m.Groups[i-1].Seg != g.Seg {
					recs = append(recs, store.Record{Type: store.RecSegment, Table: t.name, Chunk: m.ID, Seg: g.Seg})
				}
				seg := &recs[len(recs)-1]
				seg.Groups = append(seg.Groups, store.SegGroup{Cols: append([]int(nil), g.Cols...), Off: g.Off, Len: g.Len})
			}
			if len(bare) > 0 {
				sort.Ints(bare)
				recs = append(recs, store.Record{
					Type: store.RecLoaded, Table: t.name,
					Chunk: m.ID, Cols: bare,
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

// statsToRec converts catalog statistics to their serialized form. The
// record's float, string and distinct fields are retired and stay zero.
func statsToRec(s ColStats) store.ColStatsRec {
	return store.ColStatsRec{
		Valid: s.Valid, Type: uint8(schema.Int64),
		MinInt: s.MinInt, MaxInt: s.MaxInt, Rows: s.Rows,
	}
}

// statsFromRec inverts statsToRec. A record of a non-Int64 column — an
// older build journaled float and string bounds too — is dropped: ok is
// false.
func statsFromRec(r store.ColStatsRec) (s ColStats, ok bool) {
	if r.Type != uint8(schema.Int64) {
		return ColStats{}, false
	}
	return ColStats{Valid: r.Valid, MinInt: r.MinInt, MaxInt: r.MaxInt, Rows: r.Rows}, true
}
