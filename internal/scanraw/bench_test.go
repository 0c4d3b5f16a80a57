package scanraw

import (
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// benchOperator builds an operator over an unthrottled in-memory disk so
// the benchmark measures pipeline overhead, not the simulated hardware.
func benchOperator(b *testing.B, policy WritePolicy, workers int) (*Operator, []int) {
	b.Helper()
	d := vdisk.Unlimited()
	spec := gen.CSVSpec{Rows: 1 << 13, Cols: 16, Seed: 1}
	gen.Preload(d, "raw/bench.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	op := New(store, table, Config{
		Workers: workers, ChunkLines: 1 << 9, Policy: policy, CacheChunks: 4,
	})
	return op, allCols(16)
}

func runBench(b *testing.B, op *Operator, cols []int) {
	req := Request{
		Columns: cols,
		Deliver: func(bc *BinaryChunk) error { return nil },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Cache().Clear()
		if _, err := op.Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOperatorExternal measures a full external-tables scan through
// the pipeline (8 workers).
func BenchmarkOperatorExternal(b *testing.B) {
	op, cols := benchOperator(b, ExternalTables, 8)
	runBench(b, op, cols)
}

// BenchmarkOperatorSequential measures the 0-worker sequential path.
func BenchmarkOperatorSequential(b *testing.B) {
	op, cols := benchOperator(b, ExternalTables, 0)
	runBench(b, op, cols)
}

// BenchmarkOperatorSpeculative measures the speculative policy including
// scheduler coordination (writes re-target already-loaded chunks after the
// first iteration, so steady state measures the no-op write path).
func BenchmarkOperatorSpeculative(b *testing.B) {
	op, cols := benchOperator(b, Speculative, 8)
	runBench(b, op, cols)
}

// BenchmarkRawScannerNext measures READ alone: one pass of next over a 16 MB
// file on the unthrottled in-memory disk at the default chunk size, every
// carved buffer handed straight back as a conversion would. MB/s is raw
// bytes carved; allocs/op is per pass, and in steady state the passes share
// the operator's free list.
func BenchmarkRawScannerNext(b *testing.B) {
	d := vdisk.Unlimited()
	spec := gen.CSVSpec{Rows: 1 << 17, Cols: 16, Seed: 1}
	gen.Preload(d, "raw/bench.csv", spec)
	size, err := d.Size("raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("bench", spec.Schema(), "raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	op := New(store, table, Config{})
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := newRawScanner(op, "raw/bench.csv")
		for {
			data, lines, err := sc.next(op.cfg.ChunkLines)
			if err != nil {
				b.Fatal(err)
			}
			if lines == 0 {
				break
			}
			op.putText(data)
		}
		sc.release()
	}
}
