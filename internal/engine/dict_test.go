package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// A string column read from a dictionary page reaches the engine with its
// codes (chunk.Vector's Dict and Codes), and string predicates then run once
// per dictionary entry. This file holds that path to the per-row one: the
// same queries over the same rows, once with every string column as a
// conversion produces it and once decoded from its dictionary page, must give
// the same Result and, for aggregate state, the same serialized partial.

// pageDecoded returns copies of chunks with every column decoded from the
// page EncodeVector makes of it, as a database read delivers them.
func pageDecoded(t testing.TB, chunks []*chunk.BinaryChunk) []*chunk.BinaryChunk {
	t.Helper()
	out := make([]*chunk.BinaryChunk, len(chunks))
	for i, bc := range chunks {
		nb := chunk.NewBinary(bc.Schema(), bc.ID, bc.Rows)
		for _, c := range bc.Present() {
			v, err := chunk.DecodeVector(chunk.EncodeVector(bc.Column(c)))
			if err != nil {
				t.Fatal(err)
			}
			if err := nb.SetColumn(c, v); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = nb
	}
	return out
}

// dictDecoded is pageDecoded for fixtures whose every string column is
// stored as a dictionary page; one that is not fails the test, so a fixture
// cannot quietly compare plain with plain.
func dictDecoded(t testing.TB, chunks []*chunk.BinaryChunk) []*chunk.BinaryChunk {
	t.Helper()
	out := pageDecoded(t, chunks)
	for _, bc := range out {
		for _, c := range bc.Present() {
			if v := bc.Column(c); v.Type == schema.Str && v.Dict == nil {
				t.Fatalf("chunk %d column %d is not stored as a dictionary page", bc.ID, c)
			}
		}
	}
	return out
}

// dictQueries adds to diffQueries every string shape with a per-entry path —
// LIKE and NOT LIKE (with and without '_'), = / <> / < / >= against a string
// literal on either side — inside GROUP BY the string with HAVING, ORDER BY
// and LIMIT, and a string compared with a column (the per-row loop on a coded
// vector).
var dictQueries = []string{
	"SELECT COUNT(*), SUM(b) FROM t WHERE s LIKE 'g1%'",
	"SELECT a, COUNT(*) FROM t WHERE s NOT LIKE '%3' GROUP BY a",
	"SELECT COUNT(*) FROM t WHERE s LIKE 'g_' AND s NOT LIKE '_4'",
	"SELECT s, COUNT(*), SUM(b) FROM t WHERE s = 'g2' GROUP BY s",
	"SELECT s, MIN(b), MAX(f) AS m FROM t WHERE s < 'g3' GROUP BY s HAVING m > 10.0 ORDER BY s DESC",
	"SELECT b, s FROM t WHERE 'g2' <= s ORDER BY b DESC, s LIMIT 9",
	"SELECT s, c FROM t WHERE s <> 'g0' AND s LIKE '%' ORDER BY c, s LIMIT 12",
	"SELECT s, AVG(f), COUNT(*) AS n FROM t WHERE s >= s GROUP BY s HAVING n > 1 ORDER BY n DESC LIMIT 3",
	"SELECT MIN(s), MAX(s), COUNT(s) FROM t WHERE s > 'g'",
	"SELECT s, a FROM t WHERE s LIKE 'g%' AND a < 3",
	"SELECT COUNT(*) FROM t WHERE s LIKE 'x%'",
}

func TestDictionaryPagesMatchPlain(t *testing.T) {
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(int64(2000 + round)))
		plain := diffChunks(t, rng, 7, 256)
		coded := dictDecoded(t, plain)
		for _, sql := range append(diffQueries(rng), dictQueries...) {
			q, err := ParseSQL(sql, diffSch)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := runSerial(t, q, plain)
			if got := runSerial(t, q, coded); !sameResult(got, want) {
				t.Errorf("round %d: %s\nplain:      %+v\ndictionary: %+v", round, sql, want.Rows, got.Rows)
			}
			if got := runShuffled(t, rng, q, coded); !sameResult(got, want) {
				t.Errorf("round %d, shuffled: %s: dictionary result differs from plain", round, sql)
			}
			if !q.IsAggregate() {
				continue
			}
			// The generic resolver over the plain rows is the oracle for
			// the state built over the dictionary-decoded rows.
			ref, err := newPartial(q, diffSch, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, bc := range plain {
				if err := ref.Consume(bc); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(mustEncode(t, feedPartial(t, q, diffSch, coded)), mustEncode(t, ref)) {
				t.Errorf("round %d: %s: serialized partial differs from the generic resolver's over plain rows", round, sql)
			}
		}
	}
}

// TestLikeKernelsMatchRowReference holds LIKE and NOT LIKE, on converted and
// on dictionary-decoded columns, to likeMatch row by row, for patterns of
// every compiled shape and for patterns with '_'.
func TestLikeKernelsMatchRowReference(t *testing.T) {
	plain := kernelChunk(t, false)
	patterns := []string{"", "a", "b", "%", "%%", "a%", "%b", "%b%", "a%c", "h%o", "%é%", "%l%l%", "_", "__", "%_", "b_", "h_llo", "%1%0%"}
	for name, bc := range map[string]*chunk.BinaryChunk{"plain": plain, "dictionary": dictDecoded(t, []*chunk.BinaryChunk{plain})[0]} {
		for _, colName := range []string{"s1", "s2"} {
			c, err := NewCol(kernelSch, colName)
			if err != nil {
				t.Fatal(err)
			}
			strs := plain.Column(c.Idx).Strs
			for _, p := range patterns {
				for _, negate := range []bool{false, true} {
					l, err := NewLike(c, p, negate)
					if err != nil {
						t.Fatal(err)
					}
					got, err := l.Eval(bc)
					if err != nil {
						t.Fatal(err)
					}
					for r, s := range strs {
						want := int64(0)
						if likeMatch(s, p) != negate {
							want = 1
						}
						if got.Ints[r] != want {
							t.Errorf("%s %s row %d (%q): %d, want %d", name, l, r, s, got.Ints[r], want)
						}
					}
					releaseScratch(l, got)
				}
			}
		}
	}
}
