package scanraw

import (
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// warmWide loads a 32-column table of 4,096 rows onto per-column pages,
// through one full-width FullLoad scan, on the given disk.
func warmWide(tb testing.TB, d *vdisk.Disk) *Operator {
	tb.Helper()
	spec := gen.CSVSpec{Rows: 1 << 12, Cols: 32, Seed: 7, MaxValue: 1000}
	gen.Preload(d, "raw/bench.csv", spec)
	st := dbstore.NewStore(d)
	table, err := st.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		tb.Fatal(err)
	}
	op := New(st, table, Config{
		Workers: 4, ChunkLines: 1 << 9, Policy: FullLoad, CacheChunks: 8,
	})
	warm := Request{Columns: allCols(32), Deliver: func(bc *BinaryChunk) error { return nil }}
	if _, err := op.Run(warm); err != nil {
		tb.Fatal(err)
	}
	op.WaitIdle()
	return op
}

// pageFraming bounds the bytes a page carries besides its column's values:
// the CRC (4), the page's column count, ordinal and vector length (a byte or
// two each) and the vector encoding's own header.
const pageFraming = 32

// TestNarrowQueryReadsItsPages: on a warm 32-column table, a 2-of-32-column
// query is served from pages for every chunk and moves at most 2/32 of the
// bytes a full-width query moves, plus the framing of its two pages per
// chunk — only the requested columns' pages cross the bus.
func TestNarrowQueryReadsItsPages(t *testing.T) {
	op := warmWide(t, vdisk.Unlimited())
	run := func(cols []int) RunStats {
		t.Helper()
		op.Cache().Clear()
		st, err := op.Run(Request{Columns: cols, Deliver: func(bc *BinaryChunk) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := run(allCols(32))
	narrow := run([]int{3, 17})
	chunks := int64(op.Table().NumChunks())
	if narrow.DeliveredDB != int(chunks) || narrow.Delivered() != int(chunks) {
		t.Fatalf("narrow query: %d of %d chunks from pages (%+v)", narrow.DeliveredDB, chunks, narrow.ScanReport)
	}
	bound := full.DiskReadBytes*2/32 + 2*chunks*pageFraming
	if narrow.DiskReadBytes > bound || narrow.DiskReadBytes == 0 {
		t.Errorf("narrow query read %d bytes; full width read %d, bound %d", narrow.DiskReadBytes, full.DiskReadBytes, bound)
	}
	t.Logf("narrow %d bytes, full %d, bound %d", narrow.DiskReadBytes, full.DiskReadBytes, bound)
}

// BenchmarkNarrowQueryColGroup times a 2-of-32-column query over a fully
// loaded table whose binary cache is cleared each iteration, so every scan
// reads its two columns' pages back from a bandwidth-throttled disk.
func BenchmarkNarrowQueryColGroup(b *testing.B) {
	op := warmWide(b, vdisk.New(vdisk.Config{ReadBandwidth: 64 << 20, WriteBandwidth: 256 << 20}))
	req := Request{Columns: []int{3, 17}, Deliver: func(bc *BinaryChunk) error { return nil }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Cache().Clear()
		if _, err := op.Run(req); err != nil {
			b.Fatal(err)
		}
	}
}
