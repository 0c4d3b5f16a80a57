package dbstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/store"
	"scanraw/internal/wire"
)

// countingDisk counts the operations a chunk write or read may spend.
type countingDisk struct {
	store.Disk
	writeBlobs, readAts, readBlobs atomic.Int64
}

func (d *countingDisk) WriteBlob(name string, p []byte) error {
	d.writeBlobs.Add(1)
	return d.Disk.WriteBlob(name, p)
}

func (d *countingDisk) ReadAt(name string, p []byte, off int64) (int, error) {
	d.readAts.Add(1)
	return d.Disk.ReadAt(name, p, off)
}

func (d *countingDisk) ReadBlob(name string) ([]byte, error) {
	d.readBlobs.Add(1)
	return d.Disk.ReadBlob(name)
}

// countingJournal counts appends and keeps what each one carried.
type countingJournal struct {
	Journal
	appends [][]store.Record
}

func (j *countingJournal) Append(recs ...store.Record) error {
	j.appends = append(j.appends, recs)
	return j.Journal.Append(recs...)
}

// intSchema is a table of n BIGINT columns c0..c<n-1>.
func intSchema(n int) *schema.Schema {
	cols := make([]schema.Column, n)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int64}
	}
	return schema.MustNew(cols...)
}

// intChunk fills every column of a chunk of sch: row r of column c of chunk
// id holds id*1e6 + c*1e3 + r.
func intChunk(t testing.TB, sch *schema.Schema, id, rows int) *chunk.BinaryChunk {
	t.Helper()
	bc := chunk.NewBinary(sch, id, rows)
	for c := 0; c < sch.NumColumns(); c++ {
		v := chunk.NewVector(schema.Int64, rows)
		for r := range v.Ints {
			v.Ints[r] = int64(id*1_000_000 + c*1_000 + r)
		}
		if err := bc.SetColumn(c, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

func colRange(lo, hi int) []int {
	cols := make([]int, hi-lo)
	for i := range cols {
		cols[i] = lo + i
	}
	return cols
}

// countedEnv is a durable 16-column table over counting wrappers.
func countedEnv(t *testing.T, width int) (*Store, *Table, *countingDisk, *countingJournal) {
	t.Helper()
	dir := t.TempDir()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { man.Close() })
	cd := &countingDisk{Disk: fd}
	s, err := OpenDurable(cd, man)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGroupWidth(width)
	cj := &countingJournal{Journal: man}
	s.journal = cj
	tbl, err := s.EnsureTable("t", intSchema(16), "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	cj.appends = nil
	return s, tbl, cd, cj
}

// TestChunkWriteCosts is the deterministic guard for the budget line this
// layout exists for: however many column groups a chunk write carries, it is
// one WriteBlob and one journal append; converting the chunk first adds at
// most one more append; what is already loaded costs nothing again; and a
// read is one ReadAt per segment it touches.
func TestChunkWriteCosts(t *testing.T) {
	for _, width := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s, tbl, disk, journal := countedEnv(t, width)
			sch := tbl.Schema()
			all := colRange(0, 16)

			// Chunk 0, the scan's way: discover, convert (statistics), write.
			bc := intChunk(t, sch, 0, 32)
			if err := tbl.EnsureChunk(0, 32, 0, 100); err != nil {
				t.Fatal(err)
			}
			stats := make([]ColStats, len(all))
			for i, c := range all {
				stats[i] = CollectStats(bc.Column(c))
			}
			if err := tbl.SetChunkStats(0, all, stats); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc, all); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 1 || a != 2 {
				t.Fatalf("converted + written chunk cost %d WriteBlob, %d appends; want 1 and 2", w, a)
			}
			// Replay order: geometry, then statistics, then the loaded record.
			var order []store.RecType
			for _, ap := range journal.appends {
				for _, r := range ap {
					if len(order) == 0 || order[len(order)-1] != r.Type {
						order = append(order, r.Type)
					}
				}
			}
			if want := []store.RecType{store.RecChunk, store.RecStats, store.RecSegment}; !reflect.DeepEqual(order, want) {
				t.Errorf("journal order = %v, want %v", order, want)
			}

			// Chunk 1, written without statistics: the geometry record rides in
			// the loaded append.
			if err := tbl.EnsureChunk(1, 32, 100, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, intChunk(t, sch, 1, 32), all); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 2 || a != 3 {
				t.Fatalf("full-width write cost %d WriteBlob, %d appends; want 1 and 1 more", w-1, a-2)
			}
			if last := journal.appends[2]; len(last) != 2 || last[0].Type != store.RecChunk || last[1].Type != store.RecSegment {
				t.Errorf("loaded append = %+v, want the pending geometry then the segment", last)
			}

			// Re-writing loaded groups writes nothing.
			if err := s.WriteChunk(tbl, bc); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc, colRange(3, 9)); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 2 || a != 3 {
				t.Errorf("re-writing loaded columns cost %d WriteBlob, %d appends", w-2, a-3)
			}

			// Chunk 2 arrives as c0-c11, then c12-c15 (S1 then S2): two
			// segments, and a 16-column read is two ReadAts — the pages of a
			// segment are adjacent — and no whole-blob read.
			bc2 := intChunk(t, sch, 2, 32)
			if err := tbl.EnsureChunk(2, 32, 200, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc2, colRange(0, 12)); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc2, all); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 4 || a != 5 {
				t.Fatalf("two partial writes cost %d WriteBlob, %d appends; want 2 and 2", w-2, a-3)
			}
			disk.readAts.Store(0)
			disk.readBlobs.Store(0)
			got, err := s.ReadChunk(tbl, 2, all)
			if err != nil {
				t.Fatal(err)
			}
			wantAts := int64(2)
			if width == 0 {
				// Full width: a group is written whole, so the second write
				// is the entire chunk as one page and covers the read alone.
				wantAts = 1
			}
			if at, bl := disk.readAts.Load(), disk.readBlobs.Load(); at != wantAts || bl != 0 {
				t.Errorf("16-column read cost %d ReadAt, %d ReadBlob; want %d and 0", at, bl, wantAts)
			}
			for _, c := range all {
				if !reflect.DeepEqual(got.Column(c).Ints, bc2.Column(c).Ints) {
					t.Errorf("column %d read back wrong", c)
				}
			}
			// A narrow read transfers only its own pages.
			before := disk.Stats().ReadBytes
			if _, err := s.ReadChunk(tbl, 2, []int{1}); err != nil {
				t.Fatal(err)
			}
			meta, _ := tbl.Chunk(2)
			need := make([]bool, len(meta.Loaded))
			need[1] = true
			if cover, _ := coverGroups(nil, meta, need); disk.Stats().ReadBytes-before != cover[0].Len {
				t.Errorf("one-column read moved %d bytes, its page is %d", disk.Stats().ReadBytes-before, cover[0].Len)
			}
		})
	}
}

// segmentEnv writes one 8-column chunk at width 2 — four group pages in one
// segment — next to an untouched second chunk, closes the store and returns
// the data-dir, the segment's file and the groups' places in it.
func segmentEnv(t *testing.T) (dir, file string, groups []GroupState) {
	t.Helper()
	dir = t.TempDir()
	s, man := durableEnv(t, dir)
	s.SetGroupWidth(2)
	sch := intSchema(8)
	tbl, err := s.EnsureTable("t", sch, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if err := tbl.EnsureChunk(id, 16, int64(id*100), 100); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChunk(tbl, intChunk(t, sch, id, 16)); err != nil {
			t.Fatal(err)
		}
	}
	meta, _ := tbl.Chunk(0)
	if len(meta.Groups) != 4 || meta.Groups[0].Seg != "s0-7" {
		t.Fatalf("chunk 0 groups = %+v, want four in s0-7", meta.Groups)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "blobs", "db", "t", "00000000", "s0-7"), meta.Groups
}

// checkDamage reopens the damaged data-dir and asserts that exactly the
// groups in lost were invalidated, that the survivors read back right, and
// that re-converting the chunk writes the lost groups and nothing else.
func checkDamage(t *testing.T, dir string, groups []GroupState, lost map[int]bool) {
	t.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	disk := &countingDisk{Disk: fd}
	s, err := OpenDurable(disk, man)
	if err != nil {
		t.Fatal(err)
	}
	// One read per segment: two chunks, one segment each.
	if n := disk.readBlobs.Load(); n != 2 {
		t.Errorf("recovery read %d blobs for 2 segments", n)
	}
	s.SetGroupWidth(2)
	tbl, _ := s.Table("t")
	sch := tbl.Schema()
	wantInvalid := 0
	if len(lost) > 0 {
		wantInvalid = 1
	}
	if rec := s.RecoveryStats(); rec.ChunksInvalidated != wantInvalid {
		t.Errorf("ChunksInvalidated = %d, want %d", rec.ChunksInvalidated, wantInvalid)
	}
	meta, _ := tbl.Chunk(0)
	var lostCols []int
	for i, g := range groups {
		if meta.LoadedAll(g.Cols) == lost[i] {
			t.Errorf("group %v loaded = %v after the damage", g.Cols, !lost[i])
		}
		if lost[i] {
			lostCols = append(lostCols, g.Cols...)
			continue
		}
		if _, err := s.ReadChunk(tbl, 0, g.Cols); err != nil {
			t.Errorf("surviving group %v: %v", g.Cols, err)
		}
	}
	if m1, _ := tbl.Chunk(1); !m1.LoadedAll(colRange(0, 8)) {
		t.Errorf("the other chunk lost columns: %+v", m1.Loaded)
	}
	// Only the affected groups re-convert: a full-width rewrite lands one
	// segment holding exactly the lost columns (or nothing at all).
	bc := intChunk(t, sch, 0, 16)
	if err := s.WriteChunk(tbl, bc); err != nil {
		t.Fatal(err)
	}
	meta, _ = tbl.Chunk(0)
	var rewritten []int
	for _, g := range meta.Groups[len(groups)-len(lost):] { // the survivors come first
		rewritten = append(rewritten, g.Cols...)
	}
	if !reflect.DeepEqual(rewritten, lostCols) {
		t.Errorf("re-conversion wrote columns %v, the damage cost %v", rewritten, lostCols)
	}
	got, err := s.ReadChunk(tbl, 0, colRange(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		if !reflect.DeepEqual(got.Column(c).Ints, bc.Column(c).Ints) {
			t.Errorf("column %d wrong after repair", c)
		}
	}
}

// TestSegmentTruncatedAtGroupBoundary cuts the segment file at the start of
// each group (and in the middle of each): the groups before the cut survive,
// the rest re-convert.
func TestSegmentTruncatedAtGroupBoundary(t *testing.T) {
	for cut := 0; cut < 4; cut++ {
		for _, mid := range []bool{false, true} {
			t.Run(fmt.Sprintf("group=%d/mid=%v", cut, mid), func(t *testing.T) {
				dir, file, groups := segmentEnv(t)
				at := groups[cut].Off
				if mid {
					at += groups[cut].Len / 2
				}
				if err := os.Truncate(file, at); err != nil {
					t.Fatal(err)
				}
				lost := map[int]bool{}
				for i := cut; i < 4; i++ {
					lost[i] = true
				}
				checkDamage(t, dir, groups, lost)
			})
		}
	}
}

// TestSegmentBitFlipPerGroup flips one byte inside each group's page in turn
// — its checksum, its first and its last payload byte: that group alone
// re-converts.
func TestSegmentBitFlipPerGroup(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		for _, where := range []string{"crc", "first", "last"} {
			t.Run(fmt.Sprintf("group=%d/%s", victim, where), func(t *testing.T) {
				dir, file, groups := segmentEnv(t)
				raw, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				g := groups[victim]
				at := map[string]int64{"crc": g.Off, "first": g.Off + 4, "last": g.Off + g.Len - 1}[where]
				raw[at] ^= 0x10
				if err := os.WriteFile(file, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				checkDamage(t, dir, groups, map[int]bool{victim: true})
			})
		}
	}
	t.Run("undamaged", func(t *testing.T) {
		dir, _, groups := segmentEnv(t)
		checkDamage(t, dir, groups, nil)
	})
}

// TestSegmentNeverReplacesLiveBlob: after damage took one group of a segment
// and the store's width changed, a rewrite whose columns spell the old
// segment's name must not replace the blob the surviving groups live in.
func TestSegmentNeverReplacesLiveBlob(t *testing.T) {
	dir, file, groups := segmentEnv(t)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[groups[3].Off+4] ^= 0x10
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := durableEnv(t, dir)
	s.SetGroupWidth(0) // full width: the rewrite holds all of c0-c7 again
	tbl, _ := s.Table("t")
	stale, _ := tbl.Chunk(0) // a reader that resolved its groups before the rewrite
	bc := intChunk(t, tbl.Schema(), 0, 16)
	if err := s.WriteChunk(tbl, bc); err != nil {
		t.Fatal(err)
	}
	meta, _ := tbl.Chunk(0)
	if len(meta.Groups) != 4 || meta.Groups[3].Seg != "s0-7+" || len(meta.Groups[3].Cols) != 8 {
		t.Fatalf("groups after the rewrite = %+v, want the three survivors and s0-7+", meta.Groups)
	}
	after, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, raw) {
		t.Error("the live segment's bytes changed")
	}
	// The stale reader's ranges still hold their pages.
	for _, g := range stale.Groups {
		buf := make([]byte, g.Len)
		if _, err := s.Disk().ReadAt(segBlob("t", 0, g.Seg), buf, g.Off); err != nil {
			t.Fatal(err)
		}
		if _, err := openPage(buf); err != nil {
			t.Errorf("group %v of the live segment: %v", g.Cols, err)
		}
	}
}

// buildSegment knows the blob's length before it writes a byte of it: the
// blob is one allocation, exactly full, whatever the grouping — and its pages
// are the ones encodeGroupPage seals one at a time.
func TestBuildSegmentSizedUpFront(t *testing.T) {
	sch := intSchema(300) // ordinals past 127 take two varint bytes
	bc := intChunk(t, sch, 0, 200)
	for _, groups := range [][][]int{
		{{0}},
		{{0, 1, 2, 3}, {4, 5, 6, 7}},
		{colRange(120, 140), {299}},
		{colRange(0, 300)},
	} {
		blob, locs, err := buildSegment(bc, "s", groups)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != cap(blob) {
			t.Errorf("%d groups: blob of %d bytes in a buffer of %d", len(groups), len(blob), cap(blob))
		}
		var want []byte
		for _, g := range groups {
			page, err := encodeGroupPage(bc, g)
			if err != nil {
				t.Fatal(err)
			}
			want = binary.LittleEndian.AppendUint32(want, wire.Checksum(page))
			want = append(want, page...)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%d groups: segment differs from its pages sealed one by one", len(groups))
		}
		if end := locs[len(locs)-1].Off + locs[len(locs)-1].Len; end != int64(len(blob)) {
			t.Errorf("last group ends at %d of %d bytes", end, len(blob))
		}
	}
}
