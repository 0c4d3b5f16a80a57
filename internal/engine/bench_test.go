package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/sam"
	"scanraw/internal/schema"
)

func benchChunk(b testing.TB, rows, cols int) *chunk.BinaryChunk {
	b.Helper()
	sch, err := schema.Uniform(cols, schema.Int64, "c")
	if err != nil {
		b.Fatal(err)
	}
	bc := chunk.NewBinary(sch, 0, rows)
	for c := 0; c < cols; c++ {
		v := chunk.NewVector(schema.Int64, rows)
		for r := range v.Ints {
			v.Ints[r] = int64(r*cols + c)
		}
		if err := bc.SetColumn(c, v); err != nil {
			b.Fatal(err)
		}
	}
	return bc
}

// BenchmarkScalarSum measures the paper's benchmark query shape,
// SELECT SUM(c0+...+cK), over one chunk: 64 columns of 2,048 rows, and
// cold_sequence's S3 chunk, 16 columns of 8,192 rows.
func BenchmarkScalarSum(b *testing.B) {
	for _, shape := range []struct{ cols, rows int }{{64, 2048}, {16, 8192}} {
		b.Run(fmt.Sprintf("%dx%d", shape.cols, shape.rows), func(b *testing.B) {
			bc := benchChunk(b, shape.rows, shape.cols)
			cols := make([]int, shape.cols)
			for i := range cols {
				cols[i] = i
			}
			q, err := SumAllColumns(bc.Schema(), "t", cols)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runGroupBy(q, bc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(bc.Rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// groupByCase is one BenchmarkGroupBy shape: a chunk, a query over it, and
// how many times one executor consumes the chunk.
type groupByCase struct {
	name   string
	sql    string
	bc     *chunk.BinaryChunk
	chunks int
}

// groupByCases builds the shapes BenchmarkGroupBy covers, one per group
// resolver plus the table-growth extreme: a bare int key and an int
// expression (narrow keys: the direct index), a string key (direct probe), a
// composite key (the generic canonical-key path), and one group per row.
// The last two are warm_mix's groupby and filter classes as one executor
// sees them on a loaded 1M-row table: 128 chunks of 8,192 uniform 31-bit
// values.
func groupByCases(tb testing.TB) []groupByCase {
	tb.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
		schema.Column{Name: "s", Type: schema.Str},
	)
	mk := func(rows int, key func(r int) int64) *chunk.BinaryChunk {
		bc := chunk.NewBinary(sch, 0, rows)
		c0, c1, s := chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Str, rows)
		for r := 0; r < rows; r++ {
			c0.Ints[r], c1.Ints[r] = key(r), int64(2*r+1)
			s.Strs[r] = "chr" + strconv.Itoa(int(key(r)))
		}
		for i, v := range []*chunk.Vector{c0, c1, s} {
			if err := bc.SetColumn(i, v); err != nil {
				tb.Fatal(err)
			}
		}
		return bc
	}
	few := mk(2048, func(r int) int64 { return int64(r % 32) }) // a 32-valued grouping key
	rng := rand.New(rand.NewSource(1))
	uniform := mk(8192, func(int) int64 { return rng.Int63n(1 << 31) })
	for r := range uniform.Column(1).Ints {
		uniform.Column(1).Ints[r] = rng.Int63n(1 << 31)
	}
	return []groupByCase{
		{"int", "SELECT c0, COUNT(*), SUM(c1) FROM t GROUP BY c0", few, 1},
		{"expr", "SELECT c1 % 16, COUNT(c1), SUM(c1) FROM t GROUP BY c1 % 16", few, 1},
		{"str", "SELECT s, COUNT(*), SUM(c1) FROM t GROUP BY s", few, 1},
		{"composite", "SELECT c0, s, COUNT(*), SUM(c1) FROM t GROUP BY c0, s", few, 1},
		{"64k-groups", "SELECT c0, COUNT(*), SUM(c1) FROM t GROUP BY c0", mk(1<<16, func(r int) int64 { return int64(r) * 7919 }), 1},
		{"warm", "SELECT c1 % 16, COUNT(c1), SUM(c1) FROM t GROUP BY c1 % 16", uniform, 128},
		{"count-where", "SELECT COUNT(c0) FROM t WHERE c1 < 214748364", uniform, 128},
	}
}

// runGroupBy is BenchmarkGroupBy's body: one executor's whole life over one
// chunk.
func runGroupBy(q *Query, bc *chunk.BinaryChunk) error {
	return runChunks(q, bc, 1)
}

// runChunks is one executor's whole life over the same chunk n times.
func runChunks(q *Query, bc *chunk.BinaryChunk, n int) error {
	ex, err := NewExecutor(q, bc.Schema())
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := ex.Consume(bc); err != nil {
			return err
		}
	}
	_, err = ex.Result()
	return err
}

// BenchmarkGroupBy measures hash aggregation per resolver (see
// groupByCases), in rows/s so the shapes compare.
func BenchmarkGroupBy(b *testing.B) {
	for _, c := range groupByCases(b) {
		b.Run(c.name, func(b *testing.B) {
			q, err := ParseSQL(c.sql, c.bc.Schema())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runChunks(q, c.bc, c.chunks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(c.chunks*c.bc.Rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// samChunk is one 8,192-read chunk of the synthetic alignment file (the
// default ChunkLines) with the given SAM columns, as a conversion produces
// it, and the same chunk as a database read delivers it: every column
// decoded from its page, so CIGAR (≈ 150 distinct values) arrives with its
// dictionary codes and SEQ (one value per read) without.
func samChunk(tb testing.TB, cols ...string) (converted, paged *chunk.BinaryChunk) {
	tb.Helper()
	sch := sam.Schema()
	spec := sam.Spec{Reads: 8192, Seed: 3}
	reads := make([]sam.Read, spec.Reads)
	for i := range reads {
		reads[i] = spec.ReadAt(i)
	}
	ords := make([]int, len(cols))
	for i, name := range cols {
		var ok bool
		if ords[i], ok = sch.Index(name); !ok {
			tb.Fatalf("no SAM column %q", name)
		}
	}
	bc, err := sam.ReadsToChunk(0, reads, ords)
	if err != nil {
		tb.Fatal(err)
	}
	return bc, pageDecoded(tb, []*chunk.BinaryChunk{bc})[0]
}

// benchConsume is the string benchmarks' body: one executor's whole life
// over one chunk, converted ("plain") or decoded from pages ("dict"), in
// rows/s.
func benchConsume(b *testing.B, sql string, cols ...string) {
	plain, paged := samChunk(b, cols...)
	for _, c := range []struct {
		name string
		bc   *chunk.BinaryChunk
	}{{"plain", plain}, {"dict", paged}} {
		b.Run(c.name, func(b *testing.B) {
			q, err := ParseSQL(sql, c.bc.Schema())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runGroupBy(q, c.bc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(c.bc.Rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkConsumeLike is sam_sequence's S1/S3 statement: a LIKE over the
// CIGAR column.
func BenchmarkConsumeLike(b *testing.B) {
	benchConsume(b, "SELECT COUNT(pos) FROM t WHERE cigar LIKE '%D%'", "pos", "cigar")
}

// BenchmarkGroupByStr groups by the CIGAR column. Both chunks take the same
// per-row resolver; the pair shows a coded key vector costs it nothing.
func BenchmarkGroupByStr(b *testing.B) {
	benchConsume(b, "SELECT cigar, COUNT(*) FROM t GROUP BY cigar", "cigar")
}

// BenchmarkTable1Consume is Table 1's statement: a LIKE over SEQ, a GROUP BY
// over CIGAR. Its "dict" chunk is what the "Database processing" row
// consumes.
func BenchmarkTable1Consume(b *testing.B) {
	benchConsume(b, "SELECT cigar, COUNT(*) AS reads FROM alignments WHERE seq LIKE '%ACGTAC%' GROUP BY cigar", "cigar", "seq")
}

// uniformChunk is an 8,192-row chunk of cols columns of seeded values,
// uniform in [0, 1e6): no row's verdict predicts the next one's.
func uniformChunk(tb testing.TB, cols int) *chunk.BinaryChunk {
	tb.Helper()
	bc := benchChunk(tb, 8192, cols)
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < cols; c++ {
		for r := range bc.Column(c).Ints {
			bc.Column(c).Ints[r] = rng.Int63n(1e6)
		}
	}
	return bc
}

// BenchmarkFilteredCount measures predicate evaluation plus COUNT over
// uniform values, whose verdicts a branch cannot predict: two conjuncts,
// each passing the square root of the selectivity.
func BenchmarkFilteredCount(b *testing.B) {
	bc := uniformChunk(b, 4)
	for _, pct := range []int{10, 50} {
		b.Run(fmt.Sprintf("sel%d", pct), func(b *testing.B) {
			cut := int64(math.Sqrt(float64(pct)/100) * 1e6)
			q, err := ParseSQL(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 < %d AND c1 >= %d", cut, 1e6-cut), bc.Schema())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runGroupBy(q, bc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(bc.Rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkParseSQL measures query compilation.
func BenchmarkParseSQL(b *testing.B) {
	sch, err := schema.Uniform(8, schema.Int64, "c")
	if err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT c0, SUM(c1+c2) AS s FROM t WHERE c3 > 10 AND c4 < 99 GROUP BY c0 ORDER BY s DESC LIMIT 5"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSQL(sql, sch); err != nil {
			b.Fatal(err)
		}
	}
}

// topKChunks is BenchmarkTopK's table, warm_mix's top-k class as one
// executor sees it on a loaded 1M-row table: 128 chunk IDs of 8,192 rows,
// cycling over 16 distinct chunks — c0 uniform 31-bit, c1 one of 16 values
// (a first key of many ties), f uniform floats, s strings of c0.
func topKChunks(tb testing.TB) []*chunk.BinaryChunk {
	tb.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
		schema.Column{Name: "f", Type: schema.Float64},
		schema.Column{Name: "s", Type: schema.Str},
	)
	const rows, distinct = 8192, 16
	rng := rand.New(rand.NewSource(5))
	data := make([]*chunk.BinaryChunk, distinct)
	for i := range data {
		c0, c1 := chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows)
		f, s := chunk.NewVector(schema.Float64, rows), chunk.NewVector(schema.Str, rows)
		for r := 0; r < rows; r++ {
			c0.Ints[r], c1.Ints[r], f.Floats[r] = rng.Int63n(1<<31), rng.Int63n(16), rng.Float64()
			s.Strs[r] = strconv.FormatInt(c0.Ints[r], 36)
		}
		data[i] = chunk.NewBinary(sch, i, rows)
		for c, v := range []*chunk.Vector{c0, c1, f, s} {
			if err := data[i].SetColumn(c, v); err != nil {
				tb.Fatal(err)
			}
		}
	}
	out := make([]*chunk.BinaryChunk, 128)
	for id := range out {
		bc := *data[id%distinct]
		bc.ID = id
		out[id] = &bc
	}
	return out
}

// BenchmarkTopK measures ORDER BY ... LIMIT and a bare LIMIT through one
// executor over topKChunks, in Mrows/s: the top-k class's int key both
// ways, a float and a string key, two keys whose first ties often, and a
// LIMIT without ORDER BY.
func BenchmarkTopK(b *testing.B) {
	chunks := topKChunks(b)
	for _, c := range []struct{ name, sql string }{
		{"int-asc", "SELECT c0, c1 FROM t ORDER BY c0 LIMIT 10"},
		{"int-desc", "SELECT c0, c1 FROM t ORDER BY c0 DESC LIMIT 10"},
		{"float", "SELECT f, c0 FROM t ORDER BY f LIMIT 10"},
		{"str", "SELECT s, c0 FROM t ORDER BY s LIMIT 10"},
		{"ties", "SELECT c1, c0 FROM t ORDER BY c1, c0 DESC LIMIT 10"},
		{"limit", "SELECT c0, c1 FROM t LIMIT 100"},
	} {
		b.Run(c.name, func(b *testing.B) {
			q, err := ParseSQL(c.sql, chunks[0].Schema())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex, err := NewExecutor(q, chunks[0].Schema())
				if err != nil {
					b.Fatal(err)
				}
				for _, bc := range chunks {
					if err := ex.Consume(bc); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ex.Result(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(chunks)*chunks[0].Rows)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}
