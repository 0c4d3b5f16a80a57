package dbstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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
// group pages and returns the blob with each group's place in it. The
// vectors are encoded first, so the blob's length is known and it is
// allocated once.
func buildSegment(bc *chunk.BinaryChunk, seg string, groups [][]int) ([]byte, []GroupState, error) {
	encs := make([][][]byte, len(groups))
	size := 0
	for i, g := range groups {
		enc, err := encodeColumns(bc, g)
		if err != nil {
			return nil, nil, err
		}
		encs[i] = enc
		size += 4 + groupPageLen(g, enc)
	}
	e := wire.Enc{Buf: make([]byte, 0, size)}
	locs := make([]GroupState, 0, len(groups))
	for i, g := range groups {
		off := len(e.Buf)
		e.Buf = append(e.Buf, 0, 0, 0, 0) // the page's checksum, filled in below
		appendGroupPage(&e, g, encs[i])
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
// binary chunk: FetchChunk's transfer, then Decode. The chunk's vectors come
// from the chunk package's pools; its owner hands them back with
// RecycleColumns.
func (s *Store) ReadChunk(t *Table, id int, cols []int) (*chunk.BinaryChunk, error) {
	p, err := s.FetchChunk(t, id, cols)
	if err != nil {
		return nil, err
	}
	return p.Decode()
}

// ChunkPages is the transfer half of a chunk read: the sealed pages that
// cover the requested columns, in memory but neither verified nor decoded.
// It is what a caller arbitrating the disk holds the disk for; Decode, the
// CPU half, needs no disk. A ChunkPages is used once: Decode consumes it.
type ChunkPages struct {
	t        *Table
	id, rows int
	cover    []GroupState // sorted by (Seg, Off); page i is the next Len bytes of buf
	want     []bool       // by schema ordinal: the requested columns
	need     []bool       // coverGroups' working copy of want
	pcols    []groupPageCol
	buf      []byte
}

// chunkPagesPool recycles ChunkPages with their cover, column sets and read
// buffer: a page read's bytes are dead the moment they are decoded (string
// decode copies out of them), so a warm scan transfers into the same few
// buffers instead of allocating and zeroing one per read.
var chunkPagesPool = sync.Pool{New: func() any { return new(ChunkPages) }}

// FetchChunk transfers the pages covering the listed columns of chunk id.
// Every requested column must be loaded; the read is served from a greedy
// cover of the chunk's recorded column groups, so any mix of layouts and
// widths can satisfy it, and only the covering pages are transferred — one
// ReadAt per run of pages adjacent in one segment.
func (s *Store) FetchChunk(t *Table, id int, cols []int) (*ChunkPages, error) {
	p := chunkPagesPool.Get().(*ChunkPages)
	p.t, p.id = t, id
	if err := p.fetch(s.disk, cols); err != nil {
		chunkPagesPool.Put(p)
		return nil, err
	}
	return p, nil
}

func (p *ChunkPages) fetch(disk store.Disk, cols []int) error {
	if err := p.t.coverInto(p, cols); err != nil {
		return err
	}
	slices.SortFunc(p.cover, func(a, b GroupState) int {
		if c := strings.Compare(a.Seg, b.Seg); c != 0 {
			return c
		}
		return cmp.Compare(a.Off, b.Off)
	})
	total := 0
	for _, g := range p.cover {
		total += int(g.Len)
	}
	if cap(p.buf) < total {
		p.buf = make([]byte, total)
	}
	p.buf = p.buf[:total]
	at := 0
	for i := 0; i < len(p.cover); {
		j, n := i+1, int(p.cover[i].Len)
		for j < len(p.cover) && p.cover[j].Seg == p.cover[i].Seg && p.cover[j].Off == p.cover[j-1].Off+p.cover[j-1].Len {
			n += int(p.cover[j].Len)
			j++
		}
		blob, lo := segBlob(p.t.name, p.id, p.cover[i].Seg), p.cover[i].Off
		if got, err := disk.ReadAt(blob, p.buf[at:at+n], lo); err != nil {
			return fmt.Errorf("dbstore: reading %s: %w", blob, err)
		} else if got < n {
			return fmt.Errorf("dbstore: %s ends at byte %d, the catalog expects %d", blob, lo+int64(got), lo+int64(n))
		}
		at += n
		i = j
	}
	return nil
}

// coverInto resolves a read of cols against the chunk's live catalog entry,
// under the table's read lock: the row count, the requested-column set and
// the covering groups are copied into p, so a read pays for no deep copy of
// the entry. A GroupState's Cols is never written after it is recorded, so
// copying the struct is enough.
func (t *Table) coverInto(p *ChunkPages, cols []int) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p.id < 0 || p.id >= len(t.chunks) || t.chunks[p.id] == nil {
		return fmt.Errorf("dbstore: chunk %d not registered in table %q", p.id, t.name)
	}
	meta := t.chunks[p.id]
	if !meta.LoadedAll(cols) {
		return fmt.Errorf("dbstore: chunk %d does not have all of columns %v loaded", p.id, cols)
	}
	p.rows = meta.Rows
	p.want = append(p.want[:0], make([]bool, len(meta.Loaded))...)
	for _, c := range cols {
		p.want[c] = true
	}
	p.need = append(p.need[:0], p.want...)
	var err error
	p.cover, err = coverGroups(p.cover[:0], meta, p.need)
	return err
}

// Decode verifies each fetched page's checksum and decodes the requested
// columns into a binary chunk. On failure every vector taken so far has
// gone back to its pool.
func (p *ChunkPages) Decode() (*chunk.BinaryChunk, error) {
	defer chunkPagesPool.Put(p)
	bc := chunk.NewBinary(p.t.schema, p.id, p.rows)
	at := 0
	for _, g := range p.cover {
		page := p.buf[at : at+int(g.Len)]
		at += int(g.Len)
		if err := p.install(bc, g, page); err != nil {
			bc.RecycleColumns()
			return nil, fmt.Errorf("dbstore: %s: %w", segBlob(p.t.name, p.id, g.Seg), err)
		}
	}
	return bc, nil
}

// coverGroups appends to cover the recorded groups a read of the columns
// set in need is served from, by greedy cover: repeatedly the group
// contributing the most still-needed columns, which it clears from need.
// The caller has checked LoadedAll, so the union of groups covers the
// request and every iteration makes progress. Caller holds the table lock
// or owns meta.
func coverGroups(cover []GroupState, meta *ChunkMeta, need []bool) ([]GroupState, error) {
	left := 0
	for _, n := range need {
		if n {
			left++
		}
	}
	for left > 0 {
		best, bestGain := -1, 0
		for i, g := range meta.Groups {
			gain := 0
			for _, c := range g.Cols {
				if need[c] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("dbstore: chunk %d groups do not cover the requested columns", meta.ID)
		}
		cover = append(cover, meta.Groups[best])
		for _, c := range meta.Groups[best].Cols {
			need[c] = false
		}
		left -= bestGain
	}
	return cover, nil
}

// install verifies one group's sealed page and decodes the columns it holds
// that are requested, and that bc does not have yet, into bc.
func (p *ChunkPages) install(bc *chunk.BinaryChunk, g GroupState, page []byte) error {
	payload, err := openPage(page)
	if err != nil {
		return err
	}
	if g.Bare {
		p.pcols = append(p.pcols[:0], groupPageCol{col: g.Cols[0], enc: payload})
	} else if p.pcols, err = decodeGroupPage(p.pcols[:0], payload); err != nil {
		return fmt.Errorf("group %s: %w", EncodeColGroupKey(g.Cols), err)
	}
	for _, pc := range p.pcols {
		// Two covering groups may both hold a column; the first wins.
		if pc.col >= len(p.want) || !p.want[pc.col] || bc.Has(pc.col) {
			continue
		}
		v, err := chunk.DecodeVector(pc.enc)
		if err != nil {
			return fmt.Errorf("decoding column %d: %w", pc.col, err)
		}
		if err := bc.SetColumn(pc.col, v); err != nil {
			chunk.PutVector(v)
			return err
		}
	}
	return nil
}
