package engine

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// checkGolden compares got against a hex fixture (whitespace ignored). The
// fixtures in this file were captured from the code as of PR 15, before the
// codecs moved onto internal/wire: a test that encodes and decodes with the
// same code revision cannot see format drift, frozen bytes can. The one
// fixture re-captured since is goldenPartialGroups, when each aggregate came
// to keep only the fields its function reads; goldenPartialGroupsV1 keeps
// the bytes it replaced.
func checkGolden(t *testing.T, name, fixture string, got []byte) {
	t.Helper()
	if g := hex.EncodeToString(got); g != strings.Join(strings.Fields(fixture), "") {
		t.Errorf("%s: bytes differ from the fixture\n got %s", name, g)
	}
}

// goldenPartialGroups: a field an item's function does not keep is zero
// (see aggState).
const goldenPartialGroups = `
0102040100010200080000000000000000000000000000000000000000000000
0000000000000000000300000000000000000000000000000000000000000000
0000000000000004000000000000000000000000000000000000000000000000
000000000000000000000000000000000000010000000000f87f000000000000
00000000010000000000000000000000000000000000000000010000000000f8
7f00000100000000000000000000000000000000000000000000000000000000
00000100000000000000000000000a0000000000000000000000000000000000
00010400010000000000f87f0000000000000000000000000000000000000000
0004616263000102036162630800000000000000000000000000000000000000
0000000000000000000000000066000000000000000000000000000000000000
0000000000000000000000060000000000000000000000000000000000000000
00000000000000000000000000000000000000000000000000000000d0bf0000
0000000000000000010000000000000000000000000000000000000000000000
0000000840000001000000000000000000000000000000000000000000000000
0000000003616263000100000000000000000000005400000000000000000000
0000000000000000010600000000000000154000000000000000000000000000
00000000000000001368c3a96c6c6f20e4b896e7958c20f09f9c810001021268
c3a96c6c6f20e4b896e7958c20f09f9c81080000000000000000000000000000
000000000000000000000000000000000000efffffffffffffffff0100000000
0000000000000000000000000000000000000000000000000004000000000000
0000000000000000000000000000000000000000000000000000000000000000
00000000000000000000f07f0000000000000000000001000000000000000000
0000000000000000000000000000000000f07f00000100000000000000000000
0000000000000000000000000000000000001268c3a96c6c6f20e4b896e7958c
20f09f9c8100010000000000000000000000feffffffffffffffff0100000000
0000000000000000000000000000010400010000000000f87f00000000000000
0000000000000000000000000000037a7a000102027a7a080000000000000000
000000000000000000000000000000000000000000000000ffffffffffffffff
ff01000000000000000000000000000000000000000000000000000000000002
0000000000000000000000000000000000000000000000000000000000000000
00000000000000000000000000000000f0ff0000000000000000000001000000
0000000000000000000000000000000000000000000000f0ff00000100000000
000000000000000000000000000000000000000000000000027a7a0001000000
0000000000000000ffffffffffffffffff010000000000000000000000000000
00000000010200000000000000f0ff0000000000000000000000000000000000
00000000
`

// goldenPartialGroupsV1 is goldenPartialGroups as written before each
// aggregate kept only the fields its function reads: every item carried
// every field its input type could feed. It stays a decode input
// (TestGoldenPartialGroupsV1).
const goldenPartialGroupsV1 = `
0102040100010200080000000000000000000000000000000000000000000000
0000000000000000040300000000000000000d0a000000000000000000000000
0000000000000104000000000000000000000000000000000000000000000000
0000000000000400010000000000f87f0000010000000000f87f010000000000
f87f0000010400010000000000f87f0000010000000000f87f010000000000f8
7f00000104000000000000000000000000000000000000000000000000000000
000001040300000000000000000d0a0000000000000000000000000000000000
00010400010000000000f87f0000010000000000f87f010000000000f87f0000
0104616263000102036162630800000000000000000000000000000000000000
0000000000000000000000000666000000000000000000540000000000000000
0000000000000000000001060000000000000000000000000000000000000000
00000000000000000000060000000000000015400000000000000000d0bf0000
000000000840000001060000000000000015400000000000000000d0bf000000
0000000840000001060000000000000000000000000000000000000000000000
0000000003616263036162630106660000000000000000005400000000000000
000000000000000000000001060000000000000015400000000000000000d0bf
00000000000008400000011368c3a96c6c6f20e4b896e7958c20f09f9c810001
021268c3a96c6c6f20e4b896e7958c20f09f9c81080000000000000000000000
000000000000000000000000000000000000000004efffffffffffffffff0100
0000000000000012feffffffffffffffff010000000000000000000000000000
0000000001040000000000000000000000000000000000000000000000000000
000000000400010000000000f87f0000000000000000f07f000000000000f07f
0000010400010000000000f87f0000000000000000f07f000000000000f07f00
0001040000000000000000000000000000000000000000000000000000001268
c3a96c6c6f20e4b896e7958c20f09f9c811268c3a96c6c6f20e4b896e7958c20
f09f9c810104efffffffffffffffff01000000000000000012feffffffffffff
ffff01000000000000000000000000000000000000010400010000000000f87f
0000000000000000f07f000000000000f07f000001037a7a000102027a7a0800
00000000000000000000000000000000000000000000000000000000000002ff
ffffffffffffffff010000000000000000ffffffffffffffffff01ffffffffff
ffffffff01000000000000000000000000000000000000010200000000000000
00000000000000000000000000000000000000000000000200000000000000f0
ff0000000000000000f0ff000000000000f0ff0000010200000000000000f0ff
0000000000000000f0ff000000000000f0ff0000010200000000000000000000
0000000000000000000000000000000000027a7a027a7a0102ffffffffffffff
ffff010000000000000000ffffffffffffffffff01ffffffffffffffffff0100
0000000000000000000000000000000000010200000000000000f0ff00000000
00000000f0ff000000000000f0ff000001
`

const goldenPartialTopK = `
010104060203001201010000000000f87f021268c3a96c6c6f20e4b896e7958c
20f09f9c810601030012010000000000000840020361626305020300feffffff
ffffffffff0101000000000000f07f021268c3a96c6c6f20e4b896e7958c20f0
9f9c81050303005401000000000000d0bf0203616263
`

const goldenPartialRows = `
0100088080400003000001000000000000044002036162638080400103000d01
010000000000f87f0200808040020300feffffffffffffffff01010000000000
00f07f021268c3a96c6c6f20e4b896e7958c20f09f9c81808040030300540100
0000000000d0bf02036162638080400403000a0159f3f8c21f6ea50102008180
40000300ffffffffffffffffff0101000000000000f0ff02027a7a8180400103
001201000000000000084002036162638180400203001201010000000000f87f
021268c3a96c6c6f20e4b896e7958c20f09f9c81
`

// goldenChunks holds every value shape the partial codec carries: negative
// and extreme ints, NaN and ±Inf floats, empty and multi-byte UTF-8
// strings, repeated group keys across two chunks.
func goldenChunks(t *testing.T) (*schema.Schema, []*chunk.BinaryChunk) {
	t.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Float64},
		schema.Column{Name: "c2", Type: schema.Str},
	)
	data := []struct {
		ints   []int64
		floats []float64
		strs   []string
	}{
		{
			[]int64{0, -7, math.MaxInt64, 42, 5},
			[]float64{2.5, math.NaN(), math.Inf(1), -0.25, 1e-300},
			[]string{"abc", "", "héllo 世界 🜁", "abc", ""},
		},
		{
			[]int64{math.MinInt64, 9, 9},
			[]float64{math.Inf(-1), 3, math.NaN()},
			[]string{"zz", "abc", "héllo 世界 🜁"},
		},
	}
	var chunks []*chunk.BinaryChunk
	for id, d := range data {
		bc := chunk.NewBinary(sch, id, len(d.ints))
		for c, v := range []*chunk.Vector{
			{Type: schema.Int64, Ints: d.ints},
			{Type: schema.Float64, Floats: d.floats},
			{Type: schema.Str, Strs: d.strs},
		} {
			if err := bc.SetColumn(c, v); err != nil {
				t.Fatal(err)
			}
		}
		chunks = append(chunks, bc)
	}
	return sch, chunks
}

// TestGoldenPartialBytes pins the serialized-partial payload bytes for the
// three payload kinds (aggregation table, top-k heap, row buffer) and
// checks that a decoded partial re-encodes to the same bytes — so NaN
// aggregate state and NaN row values compare by bits. The string column
// comes once as converted and once decoded from its dictionary page: the
// bytes are the same fixtures either way.
func TestGoldenPartialBytes(t *testing.T) {
	sch, plain := goldenChunks(t)
	t.Run("plain", func(t *testing.T) { checkGoldenPartials(t, sch, plain) })
	t.Run("dictionary", func(t *testing.T) { checkGoldenPartials(t, sch, dictDecoded(t, plain)) })
}

func checkGoldenPartials(t *testing.T, sch *schema.Schema, chunks []*chunk.BinaryChunk) {
	cases := []struct {
		name, sql string
		chunkBase int
		fixture   string
	}{
		{"partial_groups", goldenGroupsSQL, 0, goldenPartialGroups},
		{"partial_topk", "SELECT c0, c1, c2 FROM data ORDER BY c0 DESC LIMIT 4", 5, goldenPartialTopK},
		{"partial_rows", "SELECT c0, c1, c2 FROM data", 1 << 20, goldenPartialRows},
	}
	for _, tc := range cases {
		q, err := ParseSQL(tc.sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		data, err := EncodePartial(feedPartial(t, q, sch, chunks), tc.chunkBase)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name, tc.fixture, data)

		decoded, err := DecodePartial(q, sch, data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The decoded rows already carry global chunk IDs: base 0.
		again, err := EncodePartial(decoded, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name+" re-encoded", tc.fixture, again)
	}
}

// goldenGroupsSQL is the statement behind goldenPartialGroups: every
// aggregate function over every input type.
const goldenGroupsSQL = "SELECT c2, SUM(c0), COUNT(*), MIN(c1), MAX(c1), MIN(c2), MAX(c0), AVG(c1) FROM data GROUP BY c2"

// TestGoldenPartialGroupsV1: a payload whose aggregates carry every field
// their input could feed — what every encoder wrote before the state was
// typed per function — decodes to the partial the same chunks build now
// (same Result, and re-encoded, the current fixture), and merges with a
// current partial, in either direction, as a current one does.
func TestGoldenPartialGroupsV1(t *testing.T) {
	sch, chunks := goldenChunks(t)
	q, err := ParseSQL(goldenGroupsSQL, sch)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString(strings.Join(strings.Fields(goldenPartialGroupsV1), ""))
	if err != nil {
		t.Fatal(err)
	}
	decodeV1 := func() *Partial {
		p, err := DecodePartial(q, sch, v1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fresh := func() *Partial { return feedPartial(t, q, sch, chunks) }

	checkGolden(t, "V1 re-encoded", goldenPartialGroups, mustEncode(t, decodeV1()))
	if !sameResult(mustResult(t, decodeV1()), mustResult(t, fresh())) {
		t.Error("V1 payload: Result differs from the chunks'")
	}
	want := fresh()
	if err := want.Merge(fresh()); err != nil {
		t.Fatal(err)
	}
	wantBytes, wantRes := mustEncode(t, want), mustResult(t, want)
	for name, pair := range map[string][2]*Partial{
		"V1←current": {decodeV1(), fresh()},
		"current←V1": {fresh(), decodeV1()},
	} {
		if err := pair[0].Merge(pair[1]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustEncode(t, pair[0]), wantBytes) {
			t.Errorf("%s: merged partial differs from two current partials merged", name)
		}
		if !sameResult(mustResult(t, pair[0]), wantRes) {
			t.Errorf("%s: merged Result differs from two current partials merged", name)
		}
	}
}

// TestPartialStringLimit: a string value of exactly the decode limit
// round-trips; one byte more encodes but is rejected on decode.
func TestPartialStringLimit(t *testing.T) {
	const limit = 1 << 18
	sch := schema.MustNew(schema.Column{Name: "s", Type: schema.Str})
	q, err := ParseSQL("SELECT s FROM data", sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{limit, limit + 1} {
		bc := chunk.NewBinary(sch, 0, 1)
		if err := bc.SetColumn(0, &chunk.Vector{Type: schema.Str, Strs: []string{strings.Repeat("x", n)}}); err != nil {
			t.Fatal(err)
		}
		data, err := EncodePartial(feedPartial(t, q, sch, []*chunk.BinaryChunk{bc}), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodePartial(q, sch, data)
		if n == limit && err != nil {
			t.Fatalf("string at the limit: %v", err)
		}
		if n > limit && err == nil {
			t.Fatal("string one past the limit decoded")
		}
	}
}
