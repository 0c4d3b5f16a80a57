package dbstore

import (
	"strings"
	"sync"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/vdisk"
)

var sch3 = schema.MustNew(
	schema.Column{Name: "a", Type: schema.Int64},
	schema.Column{Name: "b", Type: schema.Float64},
	schema.Column{Name: "c", Type: schema.Str},
)

func newTestStore(t *testing.T) (*Store, *Table) {
	t.Helper()
	s := NewStore(vdisk.Unlimited())
	tbl, err := s.CreateTable("t", sch3, "raw/t.csv")
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func fullChunk(t *testing.T, id, rows int) *chunk.BinaryChunk {
	t.Helper()
	bc := chunk.NewBinary(sch3, id, rows)
	vi := chunk.NewVector(schema.Int64, rows)
	vf := chunk.NewVector(schema.Float64, rows)
	vs := chunk.NewVector(schema.Str, rows)
	for i := 0; i < rows; i++ {
		vi.Ints[i] = int64(id*1000 + i)
		vf.Floats[i] = float64(i) / 2
		vs.Strs[i] = strings.Repeat("x", i%3+1)
	}
	for i, v := range []*chunk.Vector{vi, vf, vs} {
		if err := bc.SetColumn(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// writeAll stores every present column of bc.
func writeAll(s *Store, tbl *Table, bc *chunk.BinaryChunk) error {
	return s.WriteChunkColumns(tbl, bc, bc.Present())
}

func TestCreateTable(t *testing.T) {
	s := NewStore(vdisk.Unlimited())
	if _, err := s.CreateTable("", sch3, "raw"); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := s.CreateTable("t", sch3, "raw"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", sch3, "raw"); err == nil {
		t.Error("duplicate table should fail")
	}
	tbl, ok := s.Table("t")
	if !ok || tbl.Name() != "t" || tbl.RawFile() != "raw" || !tbl.Schema().Equal(sch3) {
		t.Errorf("Table lookup wrong: %+v %v", tbl, ok)
	}
	if _, ok := s.Table("missing"); ok {
		t.Error("missing table should not be found")
	}
}

func TestEnsureChunk(t *testing.T) {
	_, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(2, 10, 200, 100); err != nil {
		t.Fatal(err)
	}
	if tbl.NumChunks() != 3 {
		t.Errorf("NumChunks = %d, want 3 (sparse registration)", tbl.NumChunks())
	}
	if _, ok := tbl.Chunk(0); ok {
		t.Error("chunk 0 was never registered")
	}
	m, ok := tbl.Chunk(2)
	if !ok || m.Rows != 10 || m.RawOff != 200 || m.RawLen != 100 {
		t.Errorf("Chunk(2) = %+v, %v", m, ok)
	}
	// Idempotent re-registration.
	if err := tbl.EnsureChunk(2, 10, 200, 100); err != nil {
		t.Errorf("idempotent EnsureChunk failed: %v", err)
	}
	// Conflicting geometry fails.
	if err := tbl.EnsureChunk(2, 11, 200, 100); err == nil {
		t.Error("conflicting geometry should fail")
	}
	if _, ok := tbl.Chunk(-1); ok {
		t.Error("negative id should not resolve")
	}
}

// TestChunkMetaSnapshot: Chunk hands out the published metadata without a
// copy, and catalog updates replace it instead of writing into it — a meta
// held across a statistics update and a load still reads as it did.
func TestChunkMetaSnapshot(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 4, 0, 40); err != nil {
		t.Fatal(err)
	}
	before, _ := tbl.Chunk(0)
	if again, _ := tbl.Chunk(0); again != before {
		t.Error("Chunk copied metadata nothing had changed")
	}
	if err := tbl.SetChunkStats(0, []int{0}, []ColStats{{Valid: true, MinInt: 1, MaxInt: 9, Rows: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := writeAll(s, tbl, fullChunk(t, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if before.Stats[0].Valid || before.LoadedAny() || len(before.Groups) != 0 {
		t.Errorf("a held meta changed under it: stats %+v, loaded %v, groups %v", before.Stats[0], before.Loaded, before.Groups)
	}
	after, _ := tbl.Chunk(0)
	if !after.Stats[0].Valid || after.Stats[0].MaxInt != 9 || !after.LoadedAll([]int{0, 1, 2}) {
		t.Errorf("the published meta lacks the updates: stats %+v, loaded %v", after.Stats[0], after.Loaded)
	}
}

func TestWriteReadChunk(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 4, 0, 40); err != nil {
		t.Fatal(err)
	}
	bc := fullChunk(t, 0, 4)
	if err := writeAll(s, tbl, bc); err != nil {
		t.Fatal(err)
	}
	m, _ := tbl.Chunk(0)
	if !m.LoadedAll([]int{0, 1, 2}) {
		t.Fatalf("all columns should be loaded: %+v", m.Loaded)
	}
	got, err := s.ReadChunk(tbl, 0, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 4 || got.Has(1) {
		t.Errorf("ReadChunk shape wrong: rows=%d has1=%v", got.Rows, got.Has(1))
	}
	if got.Column(0).IntAt(3) != 3 {
		t.Errorf("col0[3] = %d", got.Column(0).IntAt(3))
	}
	if got.Column(2).Strs[2] != strings.Repeat("x", 3) {
		t.Errorf("col2[2] = %q", got.Column(2).Strs[2])
	}
}

func TestPartialColumnLoading(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 2, 0, 20); err != nil {
		t.Fatal(err)
	}
	bc := fullChunk(t, 0, 2)
	// Load only column 0.
	if err := s.WriteChunkColumns(tbl, bc, []int{0}); err != nil {
		t.Fatal(err)
	}
	m, _ := tbl.Chunk(0)
	if !m.Loaded[0] || m.Loaded[1] || m.Loaded[2] {
		t.Fatalf("Loaded = %v, want only col 0", m.Loaded)
	}
	if _, err := s.ReadChunk(tbl, 0, []int{0, 1}); err == nil {
		t.Error("reading an unloaded column should fail")
	}
	if _, err := s.ReadChunk(tbl, 0, []int{0}); err != nil {
		t.Errorf("reading the loaded column failed: %v", err)
	}
	// Later: load the rest (schema expansion à la column store).
	if err := s.WriteChunkColumns(tbl, bc, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadChunk(tbl, 0, []int{0, 1, 2}); err != nil {
		t.Errorf("full read after expansion failed: %v", err)
	}
}

func TestWriteChunkErrors(t *testing.T) {
	s, tbl := newTestStore(t)
	bc := fullChunk(t, 0, 4)
	// Unregistered chunk.
	if err := writeAll(s, tbl, bc); err == nil {
		t.Error("writing an unregistered chunk should fail")
	}
	if err := tbl.EnsureChunk(0, 5, 0, 40); err != nil {
		t.Fatal(err)
	}
	// Row mismatch vs catalog.
	if err := writeAll(s, tbl, bc); err == nil {
		t.Error("row-count mismatch should fail")
	}
	// Absent column.
	if err := tbl.EnsureChunk(1, 3, 40, 30); err != nil {
		t.Fatal(err)
	}
	empty := chunk.NewBinary(sch3, 1, 3)
	if err := s.WriteChunkColumns(tbl, empty, []int{0}); err == nil {
		t.Error("writing an absent column should fail")
	}
}

func TestLoadedChunksAndFullyLoaded(t *testing.T) {
	s, tbl := newTestStore(t)
	for id := 0; id < 3; id++ {
		if err := tbl.EnsureChunk(id, 2, int64(id*20), 20); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.FullyLoaded() {
		t.Error("nothing loaded yet")
	}
	for id := 0; id < 3; id++ {
		if err := writeAll(s, tbl, fullChunk(t, id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.CountLoaded([]int{0, 1, 2}); got != 3 {
		t.Errorf("CountLoaded = %d", got)
	}
	if tbl.FullyLoaded() {
		t.Error("FullyLoaded requires Complete()")
	}
	tbl.SetComplete()
	if !tbl.Complete() || !tbl.FullyLoaded() {
		t.Error("table should now be fully loaded")
	}
}

func TestDropTable(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 2, 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := writeAll(s, tbl, fullChunk(t, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if pages := s.Disk().List("db/t/"); len(pages) == 0 {
		t.Fatal("pages should exist before drop")
	}
	s.DropTable("t")
	if _, ok := s.Table("t"); ok {
		t.Error("table should be gone")
	}
	if pages := s.Disk().List("db/t/"); len(pages) != 0 {
		t.Errorf("pages remain after drop: %v", pages)
	}
	s.DropTable("t") // no-op
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 4, 0, 40); err != nil {
		t.Fatal(err)
	}
	if err := writeAll(s, tbl, fullChunk(t, 0, 4)); err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of column 0's page inside the chunk's segment.
	meta, _ := tbl.Chunk(0)
	g := meta.Groups[0]
	if len(g.Cols) != 1 || g.Cols[0] != 0 {
		t.Fatalf("first group = %+v, want column 0 alone", g)
	}
	name := segBlob("t", 0, g.Seg)
	p, err := s.Disk().ReadBlob(name)
	if err != nil {
		t.Fatal(err)
	}
	p[g.Off+g.Len-1] ^= 0xFF
	s.Disk().Preload(name, p)
	if _, err := s.ReadChunk(tbl, 0, []int{0}); err == nil {
		t.Fatal("corrupted page should fail the checksum")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("err = %v, want checksum mismatch", err)
	}
	// Other columns are unaffected.
	if _, err := s.ReadChunk(tbl, 0, []int{1, 2}); err != nil {
		t.Errorf("untouched columns failed: %v", err)
	}
	// Truncated segment.
	s.Disk().Preload(name, []byte{1, 2})
	if _, err := s.ReadChunk(tbl, 0, []int{0}); err == nil {
		t.Error("truncated segment should fail")
	}
}

func TestConcurrentCatalogUpdates(t *testing.T) {
	s, tbl := newTestStore(t)
	const chunks = 32
	var wg sync.WaitGroup
	for id := 0; id < chunks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := tbl.EnsureChunk(id, 2, int64(id*20), 20); err != nil {
				t.Error(err)
				return
			}
			bc := fullChunk(t, id, 2)
			if err := writeAll(s, tbl, bc); err != nil {
				t.Error(err)
				return
			}
			if err := tbl.SetChunkStats(id, []int{0}, []ColStats{CollectStats(bc.Column(0))}); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	if got := tbl.CountLoaded([]int{0, 1, 2}); got != chunks {
		t.Errorf("loaded = %d, want %d", got, chunks)
	}
	for id := 0; id < chunks; id++ {
		m, ok := tbl.Chunk(id)
		if !ok || !m.Stats[0].Valid {
			t.Errorf("chunk %d metadata incomplete", id)
		}
	}
}

func TestSetStatsErrors(t *testing.T) {
	_, tbl := newTestStore(t)
	if err := tbl.SetChunkStats(0, []int{0}, []ColStats{{}}); err == nil {
		t.Error("stats on unknown chunk should fail")
	}
	if err := tbl.EnsureChunk(0, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetChunkStats(0, []int{9}, []ColStats{{}}); err == nil {
		t.Error("stats on out-of-range column should fail")
	}
	if err := tbl.SetChunkStats(0, []int{0, 1}, []ColStats{{}}); err == nil {
		t.Error("two columns with one statistic should fail")
	}
}
