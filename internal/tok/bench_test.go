package tok

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/gen"
)

func benchData(b *testing.B, cols int) *chunk.TextChunk {
	b.Helper()
	spec := gen.CSVSpec{Rows: 2048, Cols: cols, Seed: 1}
	data := gen.Bytes(spec)
	return &chunk.TextChunk{Data: data, Lines: spec.Rows}
}

// BenchmarkTokenizeChunk64 measures full tokenizing throughput on the
// reference 64-column shape.
func BenchmarkTokenizeChunk64(b *testing.B) {
	tc := benchData(b, 64)
	tk := &Tokenizer{Delim: ',', MinFields: 64}
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.Tokenize(tc, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenizeSelective4of64 measures the selective-tokenizing win:
// the scan stops at the fourth attribute.
func BenchmarkTokenizeSelective4of64(b *testing.B) {
	tc := benchData(b, 64)
	tk := &Tokenizer{Delim: ',', MinFields: 64}
	b.SetBytes(int64(len(tc.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.Tokenize(tc, 4); err != nil {
			b.Fatal(err)
		}
	}
}
