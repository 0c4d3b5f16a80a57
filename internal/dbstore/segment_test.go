package dbstore

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// TestChunkWriteCosts is the deterministic guard for the budget line group
// commit exists for: however many chunks and column groups a commit carries,
// it is one WriteBlob and one journal append; converting a chunk first (its
// statistics) adds no append of its own — the statistics ride the commit's;
// what is already loaded costs nothing again; and a read is one ReadAt per
// segment it touches.
func TestChunkWriteCosts(t *testing.T) {
	for _, width := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s, tbl, disk, journal := countedEnv(t, width)
			sch := tbl.Schema()
			all := colRange(0, 16)

			// Chunks 0-2, the scan's way: discover, convert (statistics), encode
			// into one commit. Nothing is durable before the commit.
			const k = 3
			var c Commit
			chunks := make([]*chunk.BinaryChunk, k)
			for id := range chunks {
				bc := intChunk(t, sch, id, 32)
				chunks[id] = bc
				if err := tbl.EnsureChunk(id, 32, int64(id*100), 100); err != nil {
					t.Fatal(err)
				}
				stats := make([]ColStats, len(all))
				for i, col := range all {
					stats[i] = CollectStats(bc.Column(col))
				}
				if err := tbl.SetChunkStats(id, all, stats); err != nil {
					t.Fatal(err)
				}
				seg, err := s.EncodeSegment(tbl, bc, all)
				if err != nil {
					t.Fatal(err)
				}
				c.Add(seg)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 0 || a != 0 {
				t.Fatalf("converting and encoding %d chunks cost %d WriteBlob, %d appends; want none", k, w, a)
			}
			if tbl.CountLoaded(all) != 0 {
				t.Fatal("encoded chunks count as loaded before their commit")
			}
			if err := s.WriteCommit(tbl, &c); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 1 || a != 1 {
				t.Fatalf("a commit of %d converted chunks cost %d WriteBlob, %d appends; want 1 and 1", k, w, a)
			}
			if tbl.CountLoaded(all) != k {
				t.Errorf("%d chunks loaded after their commit, want %d", tbl.CountLoaded(all), k)
			}
			// Replay order: geometry, then statistics, then the loaded records.
			var order []store.RecType
			segs := 0
			for _, r := range journal.appends[0] {
				if len(order) == 0 || order[len(order)-1] != r.Type {
					order = append(order, r.Type)
				}
				if r.Type == store.RecSegment {
					segs++
				}
			}
			if want := []store.RecType{store.RecChunk, store.RecStats, store.RecSegment}; !reflect.DeepEqual(order, want) || segs != k {
				t.Errorf("commit append = %v with %d segment records, want %v with %d", order, segs, want, k)
			}

			// Chunk 3, written without statistics: its geometry record rides in
			// its commit's append.
			if err := tbl.EnsureChunk(3, 32, 300, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, intChunk(t, sch, 3, 32), all); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 2 || a != 2 {
				t.Fatalf("full-width write cost %d WriteBlob, %d appends; want 1 and 1 more", w-1, a-1)
			}
			if last := journal.appends[1]; len(last) != 2 || last[0].Type != store.RecChunk || last[1].Type != store.RecSegment {
				t.Errorf("loaded append = %+v, want the pending geometry then the segment", last)
			}

			// Re-writing loaded groups writes nothing.
			bc := chunks[0]
			if err := writeAll(s, tbl, bc); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc, colRange(3, 9)); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 2 || a != 2 {
				t.Errorf("re-writing loaded columns cost %d WriteBlob, %d appends", w-2, a-2)
			}

			// Each chunk of the commit reads back with one ReadAt: its pages
			// are adjacent in the shared blob.
			for id, bc := range chunks {
				disk.readAts.Store(0)
				got, err := s.ReadChunk(tbl, id, all)
				if err != nil {
					t.Fatal(err)
				}
				if n := disk.readAts.Load(); n != 1 {
					t.Errorf("chunk %d of the commit read with %d ReadAts", id, n)
				}
				for _, col := range all {
					if !sameInts(got.Column(col), bc.Column(col)) {
						t.Errorf("chunk %d column %d read back wrong", id, col)
					}
				}
			}

			// Chunk 4 arrives as c0-c11, then c12-c15 (S1 then S2): two
			// segments, and a 16-column read is two ReadAts — the pages of a
			// segment are adjacent — and no whole-blob read.
			bc2 := intChunk(t, sch, 4, 32)
			if err := tbl.EnsureChunk(4, 32, 400, 100); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc2, colRange(0, 12)); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteChunkColumns(tbl, bc2, all); err != nil {
				t.Fatal(err)
			}
			if w, a := disk.writeBlobs.Load(), len(journal.appends); w != 4 || a != 4 {
				t.Fatalf("two partial writes cost %d WriteBlob, %d appends; want 2 and 2", w-2, a-2)
			}
			disk.readAts.Store(0)
			disk.readBlobs.Store(0)
			got, err := s.ReadChunk(tbl, 4, all)
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
				if !sameInts(got.Column(c), bc2.Column(c)) {
					t.Errorf("column %d read back wrong", c)
				}
			}
			// A narrow read transfers only its own pages.
			before := disk.Stats().ReadBytes
			if _, err := s.ReadChunk(tbl, 4, []int{1}); err != nil {
				t.Fatal(err)
			}
			meta, _ := tbl.Chunk(4)
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
		if err := writeAll(s, tbl, intChunk(t, sch, id, 16)); err != nil {
			t.Fatal(err)
		}
	}
	meta, _ := tbl.Chunk(0)
	if len(meta.Groups) != 4 || meta.Groups[0].Seg != "c00000000" {
		t.Fatalf("chunk 0 groups = %+v, want four in c00000000", meta.Groups)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "blobs", "db", "t", "c00000000"), meta.Groups
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
	if n := disk.readAts.Load() + disk.readBlobs.Load(); n != 2 {
		t.Errorf("recovery made %d reads for 2 segments", n)
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
	if err := writeAll(s, tbl, bc); err != nil {
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
		if !sameInts(got.Column(c), bc.Column(c)) {
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
// and the store's width changed, a rewrite of the same columns must not
// replace the blob the surviving groups live in: its commit takes the next
// sequence number the journal has not named.
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
	if err := writeAll(s, tbl, bc); err != nil {
		t.Fatal(err)
	}
	meta, _ := tbl.Chunk(0)
	if len(meta.Groups) != 4 || meta.Groups[3].Seg != "c00000002" || len(meta.Groups[3].Cols) != 8 {
		t.Fatalf("groups after the rewrite = %+v, want the three survivors and c00000002", meta.Groups)
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

// failingJournal fails every append while fail is set.
type failingJournal struct {
	Journal
	fail bool
}

func (j *failingJournal) Append(recs ...store.Record) error {
	if j.fail {
		return errors.New("append failed")
	}
	return j.Journal.Append(recs...)
}

// TestCommitLoadsOnlyAfterAppend: a chunk counts as loaded only once its
// commit's append has returned. A commit whose append fails leaves the
// catalog as it was — the blob it wrote is an orphan — and the statistics
// that were to ride the append stay pending for the next one.
func TestCommitLoadsOnlyAfterAppend(t *testing.T) {
	s, tbl, _, journal := countedEnv(t, 1)
	fj := &failingJournal{Journal: journal, fail: true}
	s.journal, tbl.journal = fj, fj
	all := colRange(0, 16)
	bc := intChunk(t, tbl.Schema(), 0, 32)
	if err := tbl.EnsureChunk(0, 32, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetChunkStats(0, []int{0}, []ColStats{CollectStats(bc.Column(0))}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunkColumns(tbl, bc, all); err == nil {
		t.Fatal("a commit whose append failed succeeded")
	}
	if meta, _ := tbl.Chunk(0); meta.LoadedAny() || len(meta.Groups) != 0 {
		t.Fatalf("failed commit left the catalog at %+v", meta.Groups)
	}
	if !tbl.HasPending() {
		t.Fatal("the failed append dropped the pending statistics")
	}
	fj.fail = false
	if err := s.WriteChunkColumns(tbl, bc, all); err != nil {
		t.Fatal(err)
	}
	last := journal.appends[len(journal.appends)-1]
	if len(last) != 3 || last[0].Type != store.RecChunk || last[1].Type != store.RecStats || last[2].Type != store.RecSegment {
		t.Errorf("retried commit appended %+v, want geometry, statistics, segment", last)
	}
	if meta, _ := tbl.Chunk(0); !meta.LoadedAll(all) || meta.Groups[0].Seg != "c00000001" {
		t.Errorf("retried commit: groups %+v, want all columns in the next blob", meta.Groups)
	}
}

// sameInts reports whether two Int64 vectors hold the same values, read
// through IntAt: a column read back from an int32 page is narrow, the one
// written was wide.
func sameInts(a, b *chunk.Vector) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.IntAt(i) != b.IntAt(i) {
			return false
		}
	}
	return true
}
