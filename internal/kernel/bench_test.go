package kernel

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/gen"
	"scanraw/internal/parse"
	"scanraw/internal/schema"
	"scanraw/internal/tok"
)

// benchSetup builds the paper's reference 64-column chunk and primes the
// vector pool so short -benchtime runs measure the pooled steady state.
func benchSetup(b *testing.B, cols []int) (*chunk.TextChunk, *schema.Schema, *Kernel) {
	b.Helper()
	spec := gen.CSVSpec{Rows: 2048, Cols: 64, Seed: 1}
	tc := &chunk.TextChunk{Data: gen.Bytes(spec), Lines: spec.Rows}
	sch := spec.Schema()
	k, err := For(sch, cols, ',')
	if err != nil {
		b.Fatal(err)
	}
	warm, err := k.Convert(tc)
	if err != nil {
		b.Fatal(err)
	}
	warm.RecycleColumns()
	return tc, sch, k
}

// BenchmarkFusedChunk64 measures fused conversion of all 64 columns — the
// number TestConvertKernelSpeedupFloor holds BenchmarkTokParseChunk64 to.
func BenchmarkFusedChunk64(b *testing.B) {
	cols := make([]int, 64)
	for i := range cols {
		cols[i] = i
	}
	tc, _, k := benchSetup(b, cols)
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := k.Convert(tc)
		if err != nil {
			b.Fatal(err)
		}
		bc.RecycleColumns()
	}
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
	// Prime the map pool too.
	if pm, err := tk.Tokenize(tc, 64); err != nil {
		b.Fatal(err)
	} else {
		chunk.PutPositionalMap(pm)
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
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := k.Convert(tc)
		if err != nil {
			b.Fatal(err)
		}
		bc.RecycleColumns()
	}
}

// BenchmarkFusedScattered4of64 spreads the 4 requested columns across the
// line, so the memchr skip loop runs between every pair.
func BenchmarkFusedScattered4of64(b *testing.B) {
	tc, _, k := benchSetup(b, []int{15, 31, 47, 63})
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := k.Convert(tc)
		if err != nil {
			b.Fatal(err)
		}
		bc.RecycleColumns()
	}
}
