package dbstore

import (
	"fmt"
	"math/rand"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// BenchmarkCollectStats measures the conversion-time statistics of one
// 8192-value column — min, max and the distinct sketch in one pass — in
// millions of values per second.
func BenchmarkCollectStats(b *testing.B) {
	const n = 1 << 13
	rng := rand.New(rand.NewSource(1))
	ints := chunk.NewVector(schema.Int64, n)
	floats := chunk.NewVector(schema.Float64, n)
	strs := chunk.NewVector(schema.Str, n)
	for i := 0; i < n; i++ {
		ints.Ints[i] = rng.Int63n(1 << 31)
		floats.Floats[i] = rng.Float64()
		strs.Strs[i] = fmt.Sprintf("chr%d", rng.Intn(64))
	}
	var sink ColStats
	for _, v := range []*chunk.Vector{ints, floats, strs} {
		b.Run(v.Type.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = CollectStats(v)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvalues/s")
		})
	}
	_ = sink
}
