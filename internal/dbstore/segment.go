package dbstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"scanraw/internal/chunk"
	"scanraw/internal/store"
	"scanraw/internal/wire"
)

// Segments. One WriteChunkColumns call costs one Disk.WriteBlob and one
// Journal.Append whatever the number of column groups: the call's group
// pages — each still sealed with its own CRC, still partitioned by the
// store's group width — are concatenated into one segment blob
// db/<table>/<chunk>/s<key>, <key> being the column-group key of everything
// the segment holds, and one RecSegment record carries each group's byte
// range. On a real disk a durable operation costs a millisecond of fsync and
// the bytes cost almost nothing, so the count is what speculative loading
// pays for.
//
// Reads are Disk.ReadAt over the ranges of the groups that cover the request
// (adjacent ranges in one call). The two layouts that predate segments — a
// bare-ordinal blob per column (RecLoaded), a g<key> blob per group
// (RecLoadedGroup) — replay as segments holding one group at offset 0, whose
// length recovery resolves from the blob itself, and are read, verified and
// checkpointed through the same code.
//
// A live segment is never replaced: a write names its blob after the columns
// it holds, those are by construction not loaded, and a name some surviving
// group still references gets a suffix. Replacing a dead one (every group in
// it invalidated, or written but never journaled) is harmless — nothing
// references its bytes.

// wholeBlob is the Len of a replayed pre-segment group until recovery has
// read its blob: the page runs to the end of it.
const wholeBlob = -1

// segBlob is the disk name of a segment of one chunk.
func segBlob(table string, chunkID int, seg string) string {
	return fmt.Sprintf("db/%s/%08d/%s", table, chunkID, seg)
}

// barePageSeg and groupPageSeg are the blob names of the pre-segment
// layouts: the bare ordinal for a per-column page, "g" + the group key for a
// group page. Only replay and the compat fixtures use them.
func barePageSeg(col int) string     { return fmt.Sprintf("%04d", col) }
func groupPageSeg(cols []int) string { return "g" + EncodeColGroupKey(cols) }

// segmentName names a new segment of the chunk after the columns it holds,
// avoiding every name a live group of the chunk still references.
func segmentName(meta *ChunkMeta, groups [][]int) string {
	var cols []int
	for _, g := range groups {
		cols = append(cols, g...)
	}
	sort.Ints(cols)
	name := "s" + EncodeColGroupKey(cols)
	for slices.ContainsFunc(meta.Groups, func(g GroupState) bool { return g.Seg == name }) {
		name += "+"
	}
	return name
}

// buildSegment serializes the listed groups of bc as consecutive sealed
// group pages and returns the blob with each group's place in it.
func buildSegment(bc *chunk.BinaryChunk, seg string, groups [][]int) ([]byte, []GroupState, error) {
	var e wire.Enc
	locs := make([]GroupState, 0, len(groups))
	for _, g := range groups {
		off := len(e.Buf)
		e.Buf = append(e.Buf, 0, 0, 0, 0) // the page's checksum, filled in below
		if err := appendGroupPage(&e, bc, g); err != nil {
			return nil, nil, err
		}
		binary.LittleEndian.PutUint32(e.Buf[off:], wire.Checksum(e.Buf[off+4:]))
		locs = append(locs, GroupState{Cols: g, Seg: seg, Off: int64(off), Len: int64(len(e.Buf) - off)})
	}
	return e.Buf, locs, nil
}

// WriteChunkColumns stores the listed columns of binary chunk bc and marks
// them loaded in the catalog. The chunk must already be registered via
// EnsureChunk. The columns are partitioned along the store's group-width
// boundaries; groups whose columns are all already loaded are skipped — a
// partially-loaded chunk writes only its missing groups, and re-writing a
// loaded chunk writes nothing. Whatever remains lands as one segment: one
// WriteBlob, then one journal append. This is the WRITE stage's storage
// operation; the disk's write throttle models its I/O cost.
func (s *Store) WriteChunkColumns(t *Table, bc *chunk.BinaryChunk, cols []int) error {
	meta, ok := t.Chunk(bc.ID)
	if !ok {
		return fmt.Errorf("dbstore: chunk %d not registered in table %q", bc.ID, t.Name())
	}
	if meta.Rows != bc.Rows {
		return fmt.Errorf("dbstore: chunk %d has %d rows, catalog says %d", bc.ID, bc.Rows, meta.Rows)
	}
	groups := s.writeGroups(t, meta, cols)
	if len(groups) == 0 {
		return nil
	}
	seg := segmentName(meta, groups)
	blob, locs, err := buildSegment(bc, seg, groups)
	if err != nil {
		return err
	}
	if err := s.disk.WriteBlob(segBlob(t.Name(), bc.ID, seg), blob); err != nil {
		return fmt.Errorf("dbstore: writing chunk %d segment %s: %w", bc.ID, seg, err)
	}
	if err := t.loadSegment(bc.ID, locs); err != nil {
		return err
	}
	return s.MaybeCheckpoint()
}

// WriteChunk stores every present column of bc.
func (s *Store) WriteChunk(t *Table, bc *chunk.BinaryChunk) error {
	return s.WriteChunkColumns(t, bc, bc.Present())
}

// loadSegment records that a segment holding the listed groups is on disk:
// catalog first, then one RecSegment append. It runs only after the blob is
// durable under its final name — the data-before-metadata ordering recovery
// relies on.
func (t *Table) loadSegment(id int, groups []GroupState) error {
	defer t.journalLock()()
	m, err := t.addSegment(id, groups)
	if err != nil {
		return err
	}
	rec := store.Record{Type: store.RecSegment, Table: t.name, Chunk: id, Seg: groups[0].Seg}
	for _, g := range groups {
		rec.Groups = append(rec.Groups, store.SegGroup{Cols: g.Cols, Off: g.Off, Len: g.Len})
	}
	return t.journalAppend([]*ChunkMeta{m}, rec)
}

// addSegment is the in-memory half of loadSegment, shared with replay:
// groups are the groups of one segment. The latest word wins — groups the
// chunk already had in that blob (it was replaced whole) or over the same
// column set are dropped for the new ones — which makes re-applying a record
// idempotent.
func (t *Table) addSegment(id int, groups []GroupState) (*ChunkMeta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.chunks) || t.chunks[id] == nil {
		return nil, fmt.Errorf("dbstore: segment for unknown chunk %d", id)
	}
	m := t.chunks[id]
	for _, g := range groups {
		for _, c := range g.Cols {
			if c < 0 || c >= len(m.Loaded) {
				return nil, fmt.Errorf("dbstore: segment column %d out of range", c)
			}
		}
	}
	m.Groups = slices.DeleteFunc(m.Groups, func(old GroupState) bool {
		return slices.ContainsFunc(groups, func(g GroupState) bool {
			return g.Seg == old.Seg || slices.Equal(g.Cols, old.Cols)
		})
	})
	m.Groups = append(m.Groups, groups...)
	t.reloadLocked(m)
	return m, nil
}

// reloadLocked recomputes a chunk's loaded bits as the union of its groups
// and re-indexes it. Caller holds t.mu.
func (t *Table) reloadLocked(m *ChunkMeta) {
	clear(m.Loaded)
	for _, g := range m.Groups {
		for _, c := range g.Cols {
			m.Loaded[c] = true
		}
	}
	t.remaskLocked(m)
}

// ReadChunk reads the listed columns of chunk id from the database into a
// binary chunk. Every requested column must be loaded; the read is served
// from a greedy cover of the chunk's recorded column groups, so any mix of
// layouts and widths can satisfy it, and only the covering pages are
// transferred — one ReadAt per run of pages adjacent in one segment.
func (s *Store) ReadChunk(t *Table, id int, cols []int) (*chunk.BinaryChunk, error) {
	meta, ok := t.Chunk(id)
	if !ok {
		return nil, fmt.Errorf("dbstore: chunk %d not registered in table %q", id, t.Name())
	}
	if !meta.LoadedAll(cols) {
		return nil, fmt.Errorf("dbstore: chunk %d does not have all of columns %v loaded", id, cols)
	}
	cover, err := coverGroups(meta, cols)
	if err != nil {
		return nil, err
	}
	sort.Slice(cover, func(i, j int) bool {
		if cover[i].Seg != cover[j].Seg {
			return cover[i].Seg < cover[j].Seg
		}
		return cover[i].Off < cover[j].Off
	})
	want := make(map[int]bool, len(cols))
	for _, c := range cols {
		want[c] = true
	}
	bc := chunk.NewBinary(t.Schema(), id, meta.Rows)
	for i := 0; i < len(cover); {
		j := i + 1
		for j < len(cover) && cover[j].Seg == cover[i].Seg && cover[j].Off == cover[j-1].Off+cover[j-1].Len {
			j++
		}
		blob, lo := segBlob(t.Name(), id, cover[i].Seg), cover[i].Off
		buf := make([]byte, cover[j-1].Off+cover[j-1].Len-lo)
		if n, err := s.disk.ReadAt(blob, buf, lo); err != nil {
			return nil, fmt.Errorf("dbstore: reading %s: %w", blob, err)
		} else if n < len(buf) {
			return nil, fmt.Errorf("dbstore: %s ends at byte %d, the catalog expects %d", blob, lo+int64(n), lo+int64(len(buf)))
		}
		for _, g := range cover[i:j] {
			if err := installGroup(bc, g, buf[g.Off-lo:g.Off-lo+g.Len], want); err != nil {
				return nil, fmt.Errorf("dbstore: %s: %w", blob, err)
			}
		}
		i = j
	}
	return bc, nil
}

// coverGroups picks the recorded groups a read of cols is served from, by
// greedy cover: repeatedly the group contributing the most still-needed
// columns. LoadedAll guarantees the union of groups covers the request, so
// every iteration makes progress.
func coverGroups(meta *ChunkMeta, cols []int) ([]GroupState, error) {
	need := make(map[int]bool, len(cols))
	for _, c := range cols {
		need[c] = true
	}
	var cover []GroupState
	for len(need) > 0 {
		var best GroupState
		bestGain := 0
		for _, g := range meta.Groups {
			gain := 0
			for _, c := range g.Cols {
				if need[c] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = g, gain
			}
		}
		if bestGain == 0 {
			return nil, fmt.Errorf("dbstore: chunk %d groups do not cover columns %v", meta.ID, cols)
		}
		cover = append(cover, best)
		for _, c := range best.Cols {
			delete(need, c)
		}
	}
	return cover, nil
}

// installGroup verifies one group's sealed page and moves the columns of
// want it holds from want into bc.
func installGroup(bc *chunk.BinaryChunk, g GroupState, page []byte, want map[int]bool) error {
	payload, err := openPage(page)
	if err != nil {
		return err
	}
	pcols := []groupPageCol{{col: g.Cols[0], enc: payload}}
	if !g.Bare {
		if pcols, err = decodeGroupPage(payload); err != nil {
			return fmt.Errorf("group %s: %w", EncodeColGroupKey(g.Cols), err)
		}
	}
	for _, pc := range pcols {
		if !want[pc.col] {
			continue
		}
		v, err := chunk.DecodeVector(pc.enc)
		if err != nil {
			return fmt.Errorf("decoding column %d: %w", pc.col, err)
		}
		if err := bc.SetColumn(pc.col, v); err != nil {
			return err
		}
		delete(want, pc.col)
	}
	return nil
}
