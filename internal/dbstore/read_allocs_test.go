//go:build !race

package dbstore

import (
	"path/filepath"
	"runtime"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/store"
)

// Allocation counts mean something only without the race detector: under it
// sync.Pool drops a quarter of what it is given back.

// warmReadEnv loads one full 8,192-row chunk of a 16-column table at width
// 1 on a FileDisk, the shape a warm_mix page read has.
func warmReadEnv(tb testing.TB) (*Store, *Table) {
	tb.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(tb.TempDir(), "blobs"))
	if err != nil {
		tb.Fatal(err)
	}
	s := NewStore(fd)
	sch := intSchema(16)
	tbl, err := s.CreateTable("t", sch, "raw/t.csv")
	if err != nil {
		tb.Fatal(err)
	}
	const rows = 8192
	if err := tbl.EnsureChunk(0, rows, 0, rows*100); err != nil {
		tb.Fatal(err)
	}
	if err := writeAll(s, tbl, intChunk(tb, sch, 0, rows)); err != nil {
		tb.Fatal(err)
	}
	return s, tbl
}

// TestReadChunkAllocs is the allocation ceiling of a warm page read: once the
// pools hold a read's buffers and vectors, ReadChunk + RecycleColumns of 2 of
// 16 columns allocates the chunk header, its column table and the blob name —
// a small constant — and nothing that grows with the row count (a page is
// 32 KB encoded, 64 KB decoded).
func TestReadChunkAllocs(t *testing.T) {
	s, tbl := warmReadEnv(t)
	cols := []int{3, 4}
	read := func() {
		bc, err := s.ReadChunk(tbl, 0, cols)
		if err != nil {
			t.Fatal(err)
		}
		if got := bc.Column(4).IntAt(8191); got != 4_000+8191 {
			t.Fatalf("column 4 row 8191 = %d", got)
		}
		bc.RecycleColumns()
	}
	read()
	if n := testing.AllocsPerRun(50, read); n > 10 {
		t.Errorf("%v allocations per warm 2-column read, want at most 10", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 50; per > 1024 {
		t.Errorf("%d bytes allocated per warm 2-column read of 8192 rows, want at most 1024", per)
	}
}

var benchChunk *chunk.BinaryChunk

// BenchmarkReadChunkWarm is TestReadChunkAllocs' read on the clock: transfer
// from the page cache through a kept handle, one CRC pass, one widening loop.
func BenchmarkReadChunkWarm(b *testing.B) {
	s, tbl := warmReadEnv(b)
	cols := []int{3, 4}
	b.SetBytes(2 * 8 * 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := s.ReadChunk(tbl, 0, cols)
		if err != nil {
			b.Fatal(err)
		}
		benchChunk = bc
		bc.RecycleColumns()
	}
}
