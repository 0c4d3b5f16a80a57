package scanraw

import (
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// benchWarmNarrow times a 2-of-32-column query over a fully loaded table
// whose binary cache is cleared each iteration, so every scan reads pages
// back from a bandwidth-throttled disk. With per-column pages (width 1)
// only the two requested columns' bytes cross the bus; the full-width
// layout (width 0) must transfer every column to answer the same query.
// TestPartialWidthHitSpeedupFloor holds the pair's ratio to its floor.
func benchWarmNarrow(b *testing.B, width int) {
	d := vdisk.New(vdisk.Config{ReadBandwidth: 64 << 20, WriteBandwidth: 256 << 20})
	spec := gen.CSVSpec{Rows: 1 << 12, Cols: 32, Seed: 7, MaxValue: 1000}
	gen.Preload(d, "raw/bench.csv", spec)
	st := dbstore.NewStore(d)
	st.SetGroupWidth(width)
	table, err := st.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	op := New(st, table, Config{
		Workers: 4, ChunkLines: 1 << 9, Policy: FullLoad, CacheChunks: 8,
	})
	// Warm: one full-width scan under FullLoad leaves every column on pages.
	warm := Request{Columns: allCols(32), Deliver: func(bc *BinaryChunk) error { return nil }}
	if _, err := op.Run(warm); err != nil {
		b.Fatal(err)
	}
	op.WaitIdle()

	req := Request{Columns: []int{3, 17}, Deliver: func(bc *BinaryChunk) error { return nil }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Cache().Clear()
		if _, err := op.Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNarrowQueryColGroup(b *testing.B)  { benchWarmNarrow(b, 1) }
func BenchmarkNarrowQueryFullWidth(b *testing.B) { benchWarmNarrow(b, 0) }
