package dbstore

import (
	"math/rand"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// BenchmarkCollectStats measures the conversion-time statistics of one
// 8192-value integer column — min and max in one pass — in millions of
// values per second, for an int64 vector and an int32 (narrow) one.
func BenchmarkCollectStats(b *testing.B) {
	const n = 1 << 13
	rng := rand.New(rand.NewSource(1))
	wide := chunk.NewVector(schema.Int64, n)
	narrow := &chunk.Vector{Type: schema.Int64, Int32: make([]int32, n)}
	for i := 0; i < n; i++ {
		wide.Ints[i] = rng.Int63n(1 << 31)
		narrow.Int32[i] = rng.Int31()
	}
	var sink ColStats
	for _, v := range []*chunk.Vector{wide, narrow} {
		name := "int64"
		if v.Int32 != nil {
			name = "int32"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = CollectStats(v)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvalues/s")
		})
	}
	_ = sink
}
