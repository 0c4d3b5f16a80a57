package dbstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"scanraw/internal/chunk"
	"scanraw/internal/store"
	"scanraw/internal/wire"
)

// Segments and group commits. A chunk write is encoded, on the writer's
// goroutine, into a Segment: the sealed pages of the column groups it
// carries — each still sealed with its own CRC, still partitioned by the
// store's group width — back to back. Segments wait in a Commit, and
// WriteCommit makes a whole commit durable at once: its segments,
// concatenated, are one blob db/<table>/c<seq> written with one
// Disk.WriteBlob, and one Journal.Append carries a RecSegment per segment —
// each naming the commit's blob and its groups' byte ranges in it — behind
// whatever statistics and geometry records are pending. On a real disk a
// durable operation costs a millisecond of fsync and the bytes cost almost
// nothing, so the number of commits, not of chunks, is what loading pays.
//
// Reads are Disk.ReadAt over the ranges of the groups that cover the request
// (adjacent ranges in one call). The layouts that predate commits — a
// per-chunk segment db/<table>/<chunk>/s<key> (RecSegment naming it), a
// bare-ordinal blob per column (RecLoaded), a g<key> blob per group
// (RecLoadedGroup) — live in the chunk's directory and replay as segments of
// that chunk; the two oldest hold one group at offset 0, whose length
// recovery resolves from the blob itself. All are read, verified and
// checkpointed through the same code.
//
// A live blob is never replaced: a commit's sequence number is past every
// one the journal has named (Table.commitSeq), so the only blob a commit can
// overwrite is an orphan — written by a commit whose append never happened,
// which no record references.

// wholeBlob is the Len of a replayed pre-segment group until recovery has
// read its blob: the page runs to the end of it.
const wholeBlob = -1

// A commit is written when it holds commitChunks segments or commitBytes
// bytes, whichever comes first (Commit.Full): eight chunks of the benchmark's
// width are about 3 MB, which one fsync makes durable in about the time of
// four of 400 KB each.
const (
	commitChunks = 8
	commitBytes  = 4 << 20
)

// commitSeg names the blob of a table's seq-th commit. The "c" sets it apart
// from the per-chunk names of the older layouts (s, g, or a bare ordinal).
func commitSeg(seq int64) string { return fmt.Sprintf("c%08d", seq) }

// commitSeq parses a commit blob's name; ok is false for every other layout.
func commitSeq(seg string) (seq int64, ok bool) {
	if len(seg) != 9 || seg[0] != 'c' {
		return 0, false
	}
	seq, err := strconv.ParseInt(seg[1:], 10, 64)
	return seq, err == nil
}

// segBlob is the disk name of the segment blob seg of one chunk: a commit's
// blob, shared by the chunks it holds, sits at the table level.
func segBlob(table string, chunkID int, seg string) string {
	if _, ok := commitSeq(seg); ok {
		return fmt.Sprintf("db/%s/%s", table, seg)
	}
	return fmt.Sprintf("db/%s/%08d/%s", table, chunkID, seg)
}

// barePageSeg and groupPageSeg are the blob names of the pre-segment
// layouts: the bare ordinal for a per-column page, "g" + the group key for a
// group page. Only replay and the compat fixtures use them.
func barePageSeg(col int) string     { return fmt.Sprintf("%04d", col) }
func groupPageSeg(cols []int) string { return "g" + EncodeColGroupKey(cols) }

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

// Segment is one chunk write, encoded and not yet durable: the sealed pages
// of the groups it carries, back to back.
type Segment struct {
	Chunk  int
	groups []GroupState // Off within data; Seg is set by the commit
	data   []byte
}

// EncodeSegment encodes the listed columns of binary chunk bc that are not
// loaded yet into a segment, on the calling goroutine: the columns are
// partitioned along the store's group-width boundaries, and a group whose
// columns are all loaded is skipped. It returns a nil segment when nothing is
// left to write. The chunk must already be registered via EnsureChunk;
// nothing is written and nothing marked loaded until the segment's commit.
func (s *Store) EncodeSegment(t *Table, bc *chunk.BinaryChunk, cols []int) (*Segment, error) {
	meta, ok := t.Chunk(bc.ID)
	if !ok {
		return nil, fmt.Errorf("dbstore: chunk %d not registered in table %q", bc.ID, t.Name())
	}
	if meta.Rows != bc.Rows {
		return nil, fmt.Errorf("dbstore: chunk %d has %d rows, catalog says %d", bc.ID, bc.Rows, meta.Rows)
	}
	groups := s.writeGroups(t, meta, cols)
	if len(groups) == 0 {
		return nil, nil
	}
	data, locs, err := buildSegment(bc, "", groups)
	if err != nil {
		return nil, err
	}
	return &Segment{Chunk: bc.ID, groups: locs, data: data}, nil
}

// Commit is a group commit being assembled: the segments of one table's
// chunk writes, concatenated into the blob they will share. The zero value
// is an empty commit. A Commit is not safe for concurrent use.
type Commit struct {
	blob []byte
	segs []commitEntry
}

// commitEntry is one chunk's groups in a commit, Off within the blob.
type commitEntry struct {
	chunk  int
	groups []GroupState
}

// Add appends a segment to the commit. Two segments of one chunk share its
// entry: a chunk's groups in one blob are one record.
func (c *Commit) Add(g *Segment) {
	base := int64(len(c.blob))
	c.blob = append(c.blob, g.data...)
	i := slices.IndexFunc(c.segs, func(e commitEntry) bool { return e.chunk == g.Chunk })
	if i < 0 {
		c.segs = append(c.segs, commitEntry{chunk: g.Chunk})
		i = len(c.segs) - 1
	}
	for _, gs := range g.groups {
		gs.Off += base
		c.segs[i].groups = append(c.segs[i].groups, gs)
	}
}

// Chunks returns how many chunks the commit holds.
func (c *Commit) Chunks() int { return len(c.segs) }

// Full reports whether the commit has reached the size at which it is
// written.
func (c *Commit) Full() bool { return len(c.segs) >= commitChunks || len(c.blob) >= commitBytes }

// WriteCommit makes every segment of c durable and marks its groups loaded:
// one WriteBlob of the commit's blob under a fresh name, then one journal
// append — the pending statistics and geometry records, then a RecSegment
// per chunk — and only once that has returned, the catalog. An empty commit
// writes nothing.
func (s *Store) WriteCommit(t *Table, c *Commit) error {
	if len(c.segs) == 0 {
		return nil
	}
	seg := t.nextCommit()
	if err := s.disk.WriteBlob(segBlob(t.Name(), 0, seg), c.blob); err != nil {
		return fmt.Errorf("dbstore: writing commit %s of %d chunks: %w", seg, len(c.segs), err)
	}
	if err := t.loadSegments(seg, c.segs); err != nil {
		return err
	}
	return s.MaybeCheckpoint()
}

// WriteChunkColumns stores the listed columns of binary chunk bc and marks
// them loaded in the catalog: a commit of the one chunk. Like EncodeSegment
// it skips the groups already loaded — a partially-loaded chunk writes only
// its missing groups, and re-writing a loaded chunk writes nothing.
func (s *Store) WriteChunkColumns(t *Table, bc *chunk.BinaryChunk, cols []int) error {
	g, err := s.EncodeSegment(t, bc, cols)
	if err != nil || g == nil {
		return err
	}
	var c Commit
	c.Add(g)
	return s.WriteCommit(t, &c)
}

// nextCommit takes the table's next commit sequence number.
func (t *Table) nextCommit() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.commitSeq
	t.commitSeq++
	return commitSeg(seq)
}

// loadSegments records that the commit blob seg holding the listed chunks'
// groups is on disk: one append of a RecSegment per chunk, then the catalog.
// It runs only after the blob is durable under its final name — the
// data-before-metadata ordering recovery relies on — and a chunk counts as
// loaded only once its record is: a failed append leaves the catalog as it
// was. The checkpoint lock spans both, so no snapshot falls between them.
func (t *Table) loadSegments(seg string, entries []commitEntry) error {
	defer t.journalLock()()
	chunks := make([]*ChunkMeta, 0, len(entries))
	recs := make([]store.Record, 0, len(entries))
	t.mu.RLock()
	for _, e := range entries {
		if e.chunk >= 0 && e.chunk < len(t.chunks) {
			chunks = append(chunks, t.chunks[e.chunk])
		}
		rec := store.Record{Type: store.RecSegment, Table: t.name, Chunk: e.chunk, Seg: seg}
		for _, g := range e.groups {
			rec.Groups = append(rec.Groups, store.SegGroup{Cols: g.Cols, Off: g.Off, Len: g.Len})
		}
		recs = append(recs, rec)
	}
	t.mu.RUnlock()
	if err := t.journalAppend(chunks, recs...); err != nil {
		return err
	}
	for _, e := range entries {
		groups := slices.Clone(e.groups)
		for i := range groups {
			groups[i].Seg = seg
		}
		if _, err := t.addSegment(e.chunk, groups); err != nil {
			return err
		}
	}
	return nil
}

// addSegment is the in-memory half of loadSegments, shared with replay:
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
// CPU half, needs no disk. A ChunkPages is used once: Decode consumes it, or
// Release gives it up undecoded.
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
	defer p.Release()
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

// Release gives the pages up without decoding them: their buffer goes back
// for the next transfer.
func (p *ChunkPages) Release() { chunkPagesPool.Put(p) }

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
