package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

var diffSch = schema.MustNew(
	schema.Column{Name: "a", Type: schema.Int64},
	schema.Column{Name: "b", Type: schema.Int64},
	schema.Column{Name: "c", Type: schema.Int64},
	schema.Column{Name: "f", Type: schema.Float64},
	schema.Column{Name: "s", Type: schema.Str},
)

// diffChunks builds nc chunks of random rows. Floats are multiples of 0.25
// so every SUM/AVG is exact in binary floating point — the differential
// test demands bit-identical results, and exact values keep float addition
// associative enough for any merge order.
func diffChunks(t testing.TB, rng *rand.Rand, nc, rows int) []*chunk.BinaryChunk {
	t.Helper()
	out := make([]*chunk.BinaryChunk, nc)
	for id := 0; id < nc; id++ {
		n := rows - rng.Intn(rows/2+1) // uneven chunk sizes
		bc := chunk.NewBinary(diffSch, id, n)
		a := chunk.NewVector(schema.Int64, n)
		b := chunk.NewVector(schema.Int64, n)
		c := chunk.NewVector(schema.Int64, n)
		f := chunk.NewVector(schema.Float64, n)
		s := chunk.NewVector(schema.Str, n)
		for r := 0; r < n; r++ {
			a.Ints[r] = int64(rng.Intn(8)) // few distinct groups
			b.Ints[r] = int64(rng.Intn(1000))
			c.Ints[r] = int64(rng.Intn(100))
			f.Floats[r] = float64(rng.Intn(4000)) * 0.25
			s.Strs[r] = fmt.Sprintf("g%d", rng.Intn(5))
		}
		for i, v := range []*chunk.Vector{a, b, c, f, s} {
			if err := bc.SetColumn(i, v); err != nil {
				t.Fatal(err)
			}
		}
		out[id] = bc
	}
	return out
}

// diffQueries returns the query corpus: every aggregate function, WHERE,
// GROUP BY, HAVING, ORDER BY (both directions), LIMIT, and plain
// projections with and without LIMIT.
func diffQueries(rng *rand.Rand) []string {
	lim := 1 + rng.Intn(20)
	cut := rng.Intn(1000)
	return []string{
		"SELECT SUM(a+b), COUNT(*), MIN(b), MAX(b), AVG(f) FROM t",
		fmt.Sprintf("SELECT a, SUM(b), COUNT(*) FROM t WHERE b < %d GROUP BY a", cut),
		"SELECT a, MIN(c), MAX(f), AVG(b) FROM t GROUP BY a ORDER BY a DESC",
		"SELECT s, a, COUNT(*) AS n FROM t GROUP BY s, a HAVING n > 3 ORDER BY n DESC, s",
		fmt.Sprintf("SELECT s, AVG(f) AS m FROM t GROUP BY s HAVING m >= 100.0 ORDER BY m LIMIT %d", lim),
		fmt.Sprintf("SELECT a, b, c FROM t WHERE b >= %d", cut),
		fmt.Sprintf("SELECT b, f FROM t WHERE a = 3 ORDER BY b, f LIMIT %d", lim),
		fmt.Sprintf("SELECT a, b FROM t ORDER BY b DESC, a LIMIT %d", lim),
		fmt.Sprintf("SELECT c, s FROM t WHERE NOT s LIKE 'g1%%' AND c < 90 LIMIT %d", lim),
		"SELECT COUNT(*) FROM t WHERE f < 500.25 OR b > 900",
	}
}

// runSerial evaluates q over chunks in ID order on a width-1 executor.
func runSerial(t testing.TB, q *Query, chunks []*chunk.BinaryChunk) *Result {
	t.Helper()
	ex, err := NewExecutor(q, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range chunks {
		if err := ex.Consume(bc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ex.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// feedShuffled builds an executor and feeds it a shuffled copy of chunks.
func feedShuffled(t testing.TB, rng *rand.Rand, q *Query, chunks []*chunk.BinaryChunk) *Executor {
	t.Helper()
	ex, err := NewExecutor(q, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]*chunk.BinaryChunk(nil), chunks...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, bc := range shuffled {
		if err := ex.Consume(bc); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// runShuffled is feedShuffled finished with Result.
func runShuffled(t testing.TB, rng *rand.Rand, q *Query, chunks []*chunk.BinaryChunk) *Result {
	t.Helper()
	res, err := feedShuffled(t, rng, q, chunks).Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// encodeFinished is the fleet worker's finish: Finish, serialize.
func encodeFinished(t testing.TB, ex *Executor) []byte {
	t.Helper()
	p, err := ex.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePartial(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelMatchesSerial is the differential test of the partial
// contract: for randomized data and a query corpus spanning the whole SQL
// subset, an executor fed shuffled chunks must produce results bit-identical
// to one fed in chunk order — through Result and through the wire (Finish,
// EncodePartial, DecodePartial). Aggregate state encodes canonically, so
// there the bytes of two shuffled feeds must match; buffered rows encode in
// arrival order, so there the decoded partial's Result must.
func TestParallelMatchesSerial(t *testing.T) {
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(1000 + round)))
		chunks := diffChunks(t, rng, 7, 256)
		for _, sql := range diffQueries(rng) {
			q, err := ParseSQL(sql, diffSch)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := runSerial(t, q, chunks)
			wantBytes := encodeFinished(t, feedShuffled(t, rng, q, chunks))
			if res := runShuffled(t, rng, q, chunks); !reflect.DeepEqual(want, res) {
				t.Errorf("round %d: %s\nserial:   %+v\nshuffled: %+v", round, sql, want.Rows, res.Rows)
			}
			data := encodeFinished(t, feedShuffled(t, rng, q, chunks))
			if q.IsAggregate() && !bytes.Equal(wantBytes, data) {
				t.Errorf("round %d: %s: encoded partial depends on the chunk order", round, sql)
			}
			p, err := DecodePartial(q, diffSch, data)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, sql, err)
			}
			if res, _ := p.Result(); !reflect.DeepEqual(want, res) {
				t.Errorf("round %d: %s: decoded partial gives %+v, want %+v", round, sql, res.Rows, want.Rows)
			}
		}
	}
}

// TestExecutorMisuse covers the error surface — Consume, Result and Finish
// after Result — and mismatched merges.
func TestExecutorMisuse(t *testing.T) {
	q, err := ParseSQL("SELECT COUNT(*) FROM t", diffSch)
	if err != nil {
		t.Fatal(err)
	}
	bc := diffChunks(t, rand.New(rand.NewSource(1)), 1, 8)[0]
	ex, err := NewExecutor(q, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Result(); err == nil {
		t.Error("second Result() did not fail")
	}
	if _, err := ex.Finish(); err == nil {
		t.Error("Finish() after Result() did not fail")
	}
	if err := ex.Consume(bc); err == nil {
		t.Error("Consume() after Result() did not fail")
	}

	q2, err := ParseSQL("SELECT SUM(a) FROM t", diffSch)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPartial(q, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPartial(q2, diffSch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Merge(p2); err == nil {
		t.Error("merging partials of different queries did not fail")
	}
}
