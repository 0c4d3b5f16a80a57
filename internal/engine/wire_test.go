package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/wire"
)

func wireSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
		schema.Column{Name: "c2", Type: schema.Str},
	)
}

// wireChunk builds a binary chunk with deterministic pseudo-random data.
func wireChunk(t *testing.T, sch *schema.Schema, id, rows int, rng *rand.Rand) *chunk.BinaryChunk {
	t.Helper()
	bc := chunk.NewBinary(sch, id, rows)
	for c := 0; c < sch.NumColumns(); c++ {
		v := &chunk.Vector{Type: sch.Column(c).Type}
		for r := 0; r < rows; r++ {
			switch v.Type {
			case schema.Int64:
				v.Ints = append(v.Ints, int64(rng.Intn(500)))
			case schema.Float64:
				v.Floats = append(v.Floats, float64(rng.Intn(500)))
			default:
				v.Strs = append(v.Strs, fmt.Sprintf("s%03d", rng.Intn(500)))
			}
		}
		if err := bc.SetColumn(c, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// reID returns a shallow copy of bc with a different chunk ID — the shape
// of a worker executing with local IDs over a globally-offset range.
func reID(t *testing.T, sch *schema.Schema, bc *chunk.BinaryChunk, id int) *chunk.BinaryChunk {
	t.Helper()
	out := chunk.NewBinary(sch, id, bc.Rows)
	for c := 0; c < sch.NumColumns(); c++ {
		if bc.Has(c) {
			if err := out.SetColumn(c, bc.Column(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// feedPartial consumes n chunks into a fresh partial for q.
func feedPartial(t *testing.T, q *Query, sch *schema.Schema, chunks []*chunk.BinaryChunk) *Partial {
	t.Helper()
	p, err := NewPartial(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range chunks {
		if _, err := p.ConsumeCounted(bc); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestPartialWireRoundTrip: encode → decode → Result must equal the
// original partial's Result, for every query shape the codec carries, and
// the decoded partial must merge with a locally-built one.
func TestPartialWireRoundTrip(t *testing.T) {
	sch := wireSchema(t)
	rng := rand.New(rand.NewSource(7))
	chunks := []*chunk.BinaryChunk{
		wireChunk(t, sch, 0, 40, rng),
		wireChunk(t, sch, 1, 40, rng),
		wireChunk(t, sch, 2, 17, rng),
	}
	queries := []string{
		"SELECT c0, c2 FROM data",
		"SELECT c0 FROM data WHERE c1 > 250",
		"SELECT c0, c1 FROM data LIMIT 9",
		"SELECT c0, c1 FROM data ORDER BY c0 DESC LIMIT 7",
		"SELECT SUM(c0), COUNT(*), MIN(c1), MAX(c2), AVG(c0) FROM data",
		"SELECT c2, SUM(c0), COUNT(*) FROM data GROUP BY c2",
		"SELECT c1, MIN(c0) FROM data GROUP BY c1 ORDER BY c1 LIMIT 11",
	}
	for _, sql := range queries {
		q, err := ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		orig := feedPartial(t, q, sch, chunks)
		data, err := EncodePartial(orig, 0)
		if err != nil {
			t.Fatalf("%s: encode: %v", sql, err)
		}
		decoded, err := DecodePartial(q, sch, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", sql, err)
		}
		want, err := orig.Result()
		if err != nil {
			t.Fatal(err)
		}
		got, err := decoded.Result()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("%s: round-trip mismatch\nwant %v\ngot  %v", sql, want, got)
		}
	}
}

// TestPartialWireMergeEqualsSerial: splitting the chunks across two
// partials, shipping one over the wire, and merging must match feeding
// every chunk through one partial serially.
func TestPartialWireMergeEqualsSerial(t *testing.T) {
	sch := wireSchema(t)
	queries := []string{
		"SELECT c0, c2 FROM data WHERE c0 > 100",
		"SELECT c0 FROM data ORDER BY c0 LIMIT 10",
		"SELECT c2, SUM(c1), AVG(c0), COUNT(*) FROM data GROUP BY c2",
		"SELECT SUM(c0), MIN(c2), MAX(c1) FROM data",
	}
	for _, sql := range queries {
		rng := rand.New(rand.NewSource(11))
		chunks := []*chunk.BinaryChunk{
			wireChunk(t, sch, 0, 30, rng),
			wireChunk(t, sch, 1, 30, rng),
			wireChunk(t, sch, 2, 30, rng),
			wireChunk(t, sch, 3, 5, rng),
		}
		q, err := ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		serial := feedPartial(t, q, sch, chunks)
		want, err := serial.Result()
		if err != nil {
			t.Fatal(err)
		}

		local := feedPartial(t, q, sch, chunks[:2])
		// The remote half executes with local chunk IDs 0..1 and global
		// base 2, as a worker owning range [2,4) would.
		remoteChunks := []*chunk.BinaryChunk{
			reID(t, sch, chunks[2], 0),
			reID(t, sch, chunks[3], 1),
		}
		remote := feedPartial(t, q, sch, remoteChunks)
		data, err := EncodePartial(remote, 2)
		if err != nil {
			t.Fatal(err)
		}
		shipped, err := DecodePartial(q, sch, data)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := MergePartials([]*Partial{local, shipped})
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.Result()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("%s: distributed merge mismatch\nwant %v\ngot  %v", sql, want, got)
		}
	}
}

// TestPartialWireShapeMismatch: a payload of one kind must not decode
// against a query of another shape.
func TestPartialWireShapeMismatch(t *testing.T) {
	sch := wireSchema(t)
	rng := rand.New(rand.NewSource(3))
	chunks := []*chunk.BinaryChunk{wireChunk(t, sch, 0, 10, rng)}
	rowsQ, _ := ParseSQL("SELECT c0 FROM data", sch)
	aggQ, _ := ParseSQL("SELECT SUM(c0) FROM data", sch)
	limitQ, _ := ParseSQL("SELECT c0 FROM data LIMIT 3", sch)

	rowsPayload, err := EncodePartial(feedPartial(t, rowsQ, sch, chunks), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartial(aggQ, sch, rowsPayload); err == nil {
		t.Error("row payload decoded against aggregate query")
	}
	if _, err := DecodePartial(limitQ, sch, rowsPayload); err == nil {
		t.Error("row payload decoded against LIMIT query")
	}
	aggPayload, err := EncodePartial(feedPartial(t, aggQ, sch, chunks), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartial(rowsQ, sch, aggPayload); err == nil {
		t.Error("aggregate payload decoded against row query")
	}
}

// TestPartialWireRejectsCorruption: truncations and bit flips must error,
// never panic, and trailing bytes are rejected.
func TestPartialWireRejectsCorruption(t *testing.T) {
	sch := wireSchema(t)
	rng := rand.New(rand.NewSource(5))
	chunks := []*chunk.BinaryChunk{wireChunk(t, sch, 0, 25, rng)}
	for _, sql := range []string{
		"SELECT c0, c2 FROM data",
		"SELECT c2, SUM(c0) FROM data GROUP BY c2",
		"SELECT c0 FROM data ORDER BY c0 LIMIT 5",
	} {
		q, _ := ParseSQL(sql, sch)
		data, err := EncodePartial(feedPartial(t, q, sch, chunks), 0)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut += 3 {
			if _, err := DecodePartial(q, sch, data[:cut]); err == nil && cut < len(data) {
				t.Errorf("%s: truncation at %d decoded", sql, cut)
			}
		}
		if _, err := DecodePartial(q, sch, append(bytes.Clone(data), 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", sql)
		}
		bad := bytes.Clone(data)
		bad[0] ^= 0xff // version
		if _, err := DecodePartial(q, sch, bad); err == nil {
			t.Errorf("%s: wrong version accepted", sql)
		}
	}
}

// forgedGroup is one single-key group of a hand-built payload: its key
// value, under whatever key string the forger says.
type forgedGroup struct {
	key string
	val Value
}

// forgedGroups hand-builds an aggregate payload of groups with zero
// aggregate state — the encoder itself cannot be made to write a key string
// that disagrees with the key value beside it.
func forgedGroups(t testing.TB, width int, groups ...forgedGroup) []byte {
	t.Helper()
	e := &wire.Enc{}
	e.U8(wireVersion)
	e.U8(wireKindGroups)
	e.Uvar(uint64(len(groups)))
	for _, g := range groups {
		e.Str(g.key)
		e.Uvar(1)
		if err := EncodeValue(e, g.val); err != nil {
			t.Fatal(err)
		}
		e.Uvar(uint64(width))
		for i := 0; i < width; i++ {
			encodeAggState(e, &aggState{})
		}
	}
	return e.Buf
}

// TestPartialWireKeyMustEncodeValues: a group's identity is its typed key
// values and its place in the order is its key string, so a payload in which
// the string is not the canonical encoding of the values — or the values are
// not of the GROUP BY expression's type — is rejected, while honest payloads,
// the committed golden one included, still decode.
func TestPartialWireKeyMustEncodeValues(t *testing.T) {
	sch := wireSchema(t)
	type group = forgedGroup
	for _, c := range []struct {
		name, sql string
		groups    []group
		wantErr   string
	}{
		{"honest string keys", "SELECT c2, SUM(c0), COUNT(*) FROM data GROUP BY c2",
			[]group{{"k1\x00", StrValue("k1")}, {"k2\x00", StrValue("k2")}}, ""},
		{"honest int keys", "SELECT c0, COUNT(*) FROM data GROUP BY c0",
			[]group{{"-3\x00", IntValue(-3)}, {"10\x00", IntValue(10)}, {"9\x00", IntValue(9)}}, ""},
		{"string key under another name", "SELECT c2, SUM(c0), COUNT(*) FROM data GROUP BY c2",
			[]group{{"k1\x00", StrValue("k1")}, {"k2\x00", StrValue("k1")}}, "not the encoding of its key values"},
		{"int key under another name", "SELECT c0, COUNT(*) FROM data GROUP BY c0",
			[]group{{"7\x00", IntValue(8)}}, "not the encoding of its key values"},
		{"int key in a second spelling", "SELECT c0, COUNT(*) FROM data GROUP BY c0",
			[]group{{"+7\x00", IntValue(7)}, {"7\x00", IntValue(7)}}, "not the encoding of its key values"},
		{"missing terminator", "SELECT c2, SUM(c0), COUNT(*) FROM data GROUP BY c2",
			[]group{{"k1", StrValue("k1")}}, "not the encoding of its key values"},
		{"key of the wrong type", "SELECT c0, COUNT(*) FROM data GROUP BY c0",
			[]group{{"7\x00", StrValue("7")}}, "query groups by"},
		{"keys out of order", "SELECT c0, COUNT(*) FROM data GROUP BY c0",
			[]group{{"9\x00", IntValue(9)}, {"10\x00", IntValue(10)}}, "not strictly ascending"},
	} {
		q, err := ParseSQL(c.sql, sch)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePartial(q, sch, forgedGroups(t, len(q.Items), c.groups...))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr == "":
			res, err := p.Result()
			if err != nil || len(res.Rows) != len(c.groups) {
				t.Errorf("%s: result %v, %v; want %d groups", c.name, res, err, len(c.groups))
			}
		case err == nil || !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
		}
	}

	gsch, _ := goldenChunks(t)
	gq, err := ParseSQL("SELECT c2, SUM(c0), COUNT(*), MIN(c1), MAX(c1), MIN(c2), MAX(c0), AVG(c1) FROM data GROUP BY c2", gsch)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(goldenPartialGroups), ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartial(gq, gsch, golden); err != nil {
		t.Errorf("committed golden payload: %v", err)
	}
}

// FuzzDecodePartial asserts decode totality: arbitrary bytes never panic,
// and valid decodes re-encode to a payload that decodes again.
func FuzzDecodePartial(f *testing.F) {
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
		schema.Column{Name: "c2", Type: schema.Str},
	)
	seedQueries := []string{
		"SELECT c0, c2 FROM data",
		"SELECT c0 FROM data LIMIT 4",
		"SELECT c2, SUM(c0), COUNT(*) FROM data GROUP BY c2",
	}
	rng := rand.New(rand.NewSource(1))
	var bcs []*chunk.BinaryChunk
	for id := 0; id < 2; id++ {
		bc := chunk.NewBinary(sch, id, 8)
		for c := 0; c < 3; c++ {
			v := &chunk.Vector{Type: sch.Column(c).Type}
			for r := 0; r < 8; r++ {
				if v.Type == schema.Str {
					v.Strs = append(v.Strs, fmt.Sprintf("k%d", rng.Intn(9)))
				} else {
					v.Ints = append(v.Ints, int64(rng.Intn(90)))
				}
			}
			if err := bc.SetColumn(c, v); err != nil {
				f.Fatal(err)
			}
		}
		bcs = append(bcs, bc)
	}
	for qi, sql := range seedQueries {
		q, err := ParseSQL(sql, sch)
		if err != nil {
			f.Fatal(err)
		}
		p, err := NewPartial(q, sch)
		if err != nil {
			f.Fatal(err)
		}
		for _, bc := range bcs {
			if _, err := p.ConsumeCounted(bc); err != nil {
				f.Fatal(err)
			}
		}
		data, err := EncodePartial(p, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(qi, data)
	}
	// A payload that disagrees with itself: the key string names one group,
	// the key value beside it another.
	f.Add(2, forgedGroups(f, 3, forgedGroup{"k1\x00", StrValue("k2")}))
	f.Fuzz(func(t *testing.T, qi int, data []byte) {
		sql := seedQueries[((qi%len(seedQueries))+len(seedQueries))%len(seedQueries)]
		q, err := ParseSQL(sql, sch)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePartial(q, sch, data)
		if err != nil {
			return
		}
		re, err := EncodePartial(p, 0)
		if err != nil {
			t.Fatalf("valid decode failed to re-encode: %v", err)
		}
		if _, err := DecodePartial(q, sch, re); err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
	})
}
