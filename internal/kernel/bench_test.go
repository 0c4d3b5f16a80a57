package kernel

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/gen"
	"scanraw/internal/parse"
	"scanraw/internal/sam"
	"scanraw/internal/schema"
	"scanraw/internal/tok"
)

// benchSetup builds the paper's reference 64-column chunk and the kernel for
// cols over it.
func benchSetup(b *testing.B, cols []int) (*chunk.TextChunk, *schema.Schema, *Kernel) {
	b.Helper()
	spec := gen.CSVSpec{Rows: 2048, Cols: 64, Seed: 1}
	tc := &chunk.TextChunk{Data: gen.Bytes(spec), Lines: spec.Rows}
	sch := spec.Schema()
	k, err := For(sch, cols, ',')
	if err != nil {
		b.Fatal(err)
	}
	return tc, sch, k
}

// benchConvert times k.Convert over tc, after one untimed conversion that
// primes the vector pool so short -benchtime runs measure the pooled steady
// state.
func benchConvert(b *testing.B, k *Kernel, tc *chunk.TextChunk) {
	b.Helper()
	convert := func() {
		bc, err := k.Convert(tc)
		if err != nil {
			b.Fatal(err)
		}
		bc.RecycleColumns()
	}
	convert()
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convert()
	}
}

// BenchmarkFusedChunk64 measures fused conversion of all 64 columns — the
// number TestConvertKernelSpeedupFloor holds BenchmarkTokParseChunk64 to.
func BenchmarkFusedChunk64(b *testing.B) {
	cols := make([]int, 64)
	for i := range cols {
		cols[i] = i
	}
	tc, _, k := benchSetup(b, cols)
	benchConvert(b, k, tc)
}

// BenchmarkTokParseChunk64 is the two-stage baseline over the identical
// chunk: tokenize, parse, release the positional map — everything the
// non-fused conversion path pays per chunk.
func BenchmarkTokParseChunk64(b *testing.B) {
	cols := make([]int, 64)
	for i := range cols {
		cols[i] = i
	}
	tc, sch, _ := benchSetup(b, cols)
	tk := &tok.Tokenizer{Delim: ',', MinFields: 64}
	p := &parse.Parser{Schema: sch}
	// Prime the map and vector pools.
	if pm, err := tk.Tokenize(tc, 64); err != nil {
		b.Fatal(err)
	} else if bc, err := p.Parse(tc, pm, cols); err != nil {
		b.Fatal(err)
	} else {
		chunk.PutPositionalMap(pm)
		bc.RecycleColumns()
	}
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm, err := tk.Tokenize(tc, 64)
		if err != nil {
			b.Fatal(err)
		}
		bc, err := p.Parse(tc, pm, cols)
		chunk.PutPositionalMap(pm)
		if err != nil {
			b.Fatal(err)
		}
		bc.RecycleColumns()
	}
}

// BenchmarkFusedSelective4of64 measures the selective shape: 4 requested
// columns, 60 skipped by memchr.
func BenchmarkFusedSelective4of64(b *testing.B) {
	tc, _, k := benchSetup(b, []int{0, 1, 2, 3})
	benchConvert(b, k, tc)
}

// BenchmarkFusedScattered4of64 spreads the 4 requested columns across the
// line, so the memchr skip loop runs between every pair.
func BenchmarkFusedScattered4of64(b *testing.B) {
	tc, _, k := benchSetup(b, []int{15, 31, 47, 63})
	benchConvert(b, k, tc)
}

// BenchmarkFusedPrefix12of16 is S1's chunk (DESIGN.md §12): an 8192-line
// chunk of 16 integer columns, the first 12 requested.
func BenchmarkFusedPrefix12of16(b *testing.B) {
	spec := gen.CSVSpec{Rows: 8192, Cols: 16, Seed: 1}
	k, err := For(spec.Schema(), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, ',')
	if err != nil {
		b.Fatal(err)
	}
	benchConvert(b, k, &chunk.TextChunk{Data: gen.Bytes(spec), Lines: spec.Rows})
}

// BenchmarkFusedSAM converts every column of an 8192-read SAM chunk: short
// integers among strings, through the generic kernel.
func BenchmarkFusedSAM(b *testing.B) {
	spec := sam.Spec{Reads: 8192, Seed: 1}
	sch := sam.Schema()
	cols := make([]int, sch.NumColumns())
	for i := range cols {
		cols[i] = i
	}
	k, err := For(sch, cols, '\t')
	if err != nil {
		b.Fatal(err)
	}
	benchConvert(b, k, &chunk.TextChunk{Data: sam.SAMBytes(spec), Lines: spec.Reads})
}
