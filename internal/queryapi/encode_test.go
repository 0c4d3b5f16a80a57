package queryapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// jsonRow is the shape rows had on the wire before the row encoder: each
// cell boxed for encoding/json to reflect over. It is the oracle the
// encoder's bytes are held to, evaluated at test time so the comparison
// follows the installed toolchain. A non-finite float, which encoding/json
// refuses, is the encoder's null.
func jsonRow(row []engine.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Typ {
		case schema.Int64:
			out[i] = v.Int
		case schema.Float64:
			if !math.IsNaN(v.Float) && !math.IsInf(v.Float, 0) {
				out[i] = v.Float
			}
		default:
			out[i] = v.Str
		}
	}
	return out
}

// checkRow holds appendRow to json.Marshal of the boxed row, appending into
// a buffer that has to grow.
func checkRow(t *testing.T, row []engine.Value) {
	t.Helper()
	want, err := json.Marshal(jsonRow(row))
	if err != nil {
		t.Fatal(err)
	}
	got := appendRow(make([]byte, 0, 8), row)
	if !bytes.Equal(got, want) {
		t.Errorf("row %+v:\n got %s\nwant %s", row, got, want)
	}
}

var (
	edgeInts = []int64{
		0, 1, -1, 9, 10, 99, 100, -100, 1 << 31, -(1 << 31), 1<<53 + 1, math.MaxInt64, math.MinInt64,
		1e8 - 1, 1e8, 1e8 + 1, -1e8 + 1, -1e8, -1e8 - 1, 1e9 - 1, 1e9, 1e9 + 1, -1e9 + 1, -1e9, -1e9 - 1,
		1e10 - 1, 1e10, 1e10 + 1, -1e10 + 1, -1e10, -1e10 - 1,
		1e16 - 1, 1e16, 1e16 + 1, -1e16 + 1, -1e16, -1e16 - 1,
	}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2.5, 1.0 / 3, 100, 1e6, 123456789.125,
		1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e20, 9.99999999999e20, 1e21, -1e21, 1e22, 1e100, 1e-100,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64,
		math.MaxFloat32, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeStrings = []string{
		"", "plain", `say "hi"`, `back\slash`, `\"`, "<script>&amp;</script>", "a&b", "tab\there", "line\nbreak", "cr\r",
		"\b\f", "\x00\x01\x1f", "\x7f", "héllo", "日本語", "\u2028", "x\u2029y", "\u2027\u202a", "\ufffd",
		"\xff", "a\xffb", "\xc3", "\xe2\x80", "\xe2\x80\xa8", "\xf0\x9f\x98\x80", "\xf0\x9f\x98", "\xed\xa0\x80", "\xc0\xaf",
		"IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII", "36M1D12M", "chr1\tread/1",
	}
)

// TestEncodeRowMatchesEncodingJSON: for every finite cell the encoder's
// bytes are encoding/json's, over the edges of each type, string lengths
// across the buffer's growth steps, and random rows.
func TestEncodeRowMatchesEncodingJSON(t *testing.T) {
	for _, x := range edgeInts {
		checkRow(t, []engine.Value{iv(x)})
	}
	for _, f := range edgeFloats {
		checkRow(t, []engine.Value{fv(f)})
	}
	for _, s := range edgeStrings {
		checkRow(t, []engine.Value{sv(s)})
		checkRow(t, []engine.Value{iv(1), sv(s + s), fv(0.5), sv(s)})
	}
	checkRow(t, nil)
	for n := 0; n < 200; n++ { // escapes landing on either side of each growth step
		checkRow(t, []engine.Value{sv(strings.Repeat("a", n) + "\"\n<\u2028\xff" + strings.Repeat("b", n))})
	}
	checkRow(t, []engine.Value{sv(strings.Repeat("x\\", 5000))})

	rng := rand.New(rand.NewSource(17))
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x1b", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xe2", "\x80", "😀"}
	for i := 0; i < 2000; i++ {
		row := make([]engine.Value, rng.Intn(6))
		for j := range row {
			switch rng.Intn(3) {
			case 0:
				row[j] = iv(int64(rng.Uint64()) >> uint(rng.Intn(64)))
			case 1:
				row[j] = fv(math.Float64frombits(rng.Uint64())) // every exponent, NaNs included
			default:
				var sb strings.Builder
				for k := rng.Intn(40); k > 0; k-- {
					sb.WriteString(alphabet[rng.Intn(len(alphabet))])
				}
				row[j] = sv(sb.String())
			}
		}
		checkRow(t, row)
	}

	rows := [][]engine.Value{{iv(1), sv("a")}, {}, {fv(math.NaN())}}
	want, _ := json.Marshal([][]any{jsonRow(rows[0]), jsonRow(rows[1]), jsonRow(rows[2])})
	if got := AppendRows(nil, rows); !bytes.Equal(got, want) {
		t.Errorf("AppendRows = %s, want %s", got, want)
	}
	if got := AppendRows(nil, nil); string(got) != "[]" {
		t.Errorf("AppendRows(nil) = %s", got)
	}
}

func FuzzEncodeRow(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(edgeInts[i%len(edgeInts)], edgeFloats[i%len(edgeFloats)], s)
	}
	f.Fuzz(func(t *testing.T, x int64, fl float64, s string) {
		checkRow(t, []engine.Value{iv(x), fv(fl), sv(s)})
		checkRow(t, []engine.Value{sv(s), sv(s)})
	})
}

// checkAppendInt holds appendInt(dst, x) to strconv.AppendInt(dst, x, 10)
// and to append's contract: dst is a prefix of prefix bytes with spare
// bytes of capacity filled with a sentinel; the prefix must come back
// unchanged and every sentinel past the result's length untouched.
func checkAppendInt(t *testing.T, x int64, prefix, spare int) {
	t.Helper()
	const sentinel = 0xA5
	buf := make([]byte, prefix+spare)
	for i := range buf {
		buf[i] = sentinel
	}
	for i := 0; i < prefix; i++ {
		buf[i] = byte('a' + i%26)
	}
	dst := buf[: prefix : prefix+spare]
	want := strconv.AppendInt(append([]byte(nil), dst...), x, 10)
	got := appendInt(dst, x)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendInt(%d) after %d bytes = %q, want %q", x, prefix, got, want)
	}
	for i := 0; i < prefix; i++ {
		if buf[i] != byte('a'+i%26) {
			t.Fatalf("appendInt(%d) changed prefix byte %d", x, i)
		}
	}
	for i := len(got); i < len(buf); i++ {
		if buf[i] != sentinel {
			t.Fatalf("appendInt(%d) with %d spare bytes wrote %#x at %d, past its result", x, spare, buf[i], i)
		}
	}
}

// TestAppendIntMatchesStrconv: appendInt writes strconv.AppendInt's bytes at
// every digit-count boundary, at the ends of the range and across every bit
// length, and writes nothing past its result at any spare capacity.
func TestAppendIntMatchesStrconv(t *testing.T) {
	var xs []int64
	for p := int64(1); ; p *= 10 {
		for _, x := range []int64{p - 1, p, p + 1} {
			xs = append(xs, x, -x)
		}
		if p > math.MaxInt64/10 {
			break
		}
	}
	for _, b := range []uint{31, 32, 53} {
		xs = append(xs, 1<<b-1, 1<<b, 1<<b+1, -(1<<b - 1), -(1 << b), -(1<<b + 1))
	}
	xs = append(xs, math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1)
	for _, x := range xs {
		for spare := 0; spare <= 24; spare++ {
			checkAppendInt(t, x, spare%5, spare)
		}
	}

	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 1<<20; i++ {
		x := int64(rng.Uint64()) >> uint(i%64) // every bit length, both signs
		checkAppendInt(t, x, i%3, i%25)
	}
}

// FuzzAppendInt: appendInt against strconv.AppendInt for any value, prefix
// length and spare capacity, sentinel bytes past the result untouched.
func FuzzAppendInt(f *testing.F) {
	for _, x := range edgeInts {
		f.Add(x, uint8(0), uint8(0))
		f.Add(x, uint8(3), uint8(20))
	}
	f.Fuzz(func(t *testing.T, x int64, prefix, spare uint8) {
		checkAppendInt(t, x, int(prefix%32), int(spare%32))
	})
}

// FuzzAppendChunk: AppendChunk over one to four int columns, wide or narrow,
// with every row selected or a subset, after a prefix and with spare
// capacity, writes the lines a strconv.AppendInt reference writes, and —
// when the result fits the spare capacity — nothing past them. data holds
// the values, eight little-endian bytes each, row after row; a narrow column
// keeps their low 32 bits. slack is the spare capacity less the result's
// length.
func FuzzAppendChunk(f *testing.F) {
	var seed []byte
	for _, x := range edgeInts {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(x))
	}
	f.Add(seed, uint8(0), false, uint64(0), uint8(0), int8(0))
	f.Add(seed, uint8(2), false, uint64(0x5555), uint8(3), int8(9))
	f.Add(seed, uint8(3), true, uint64(0xf0f1), uint8(7), int8(-4))
	f.Add(binary.LittleEndian.AppendUint64(seed, 12345), uint8(0), true, uint64(0), uint8(1), int8(127))
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8, narrow bool, selBits uint64, prefix uint8, slack int8) {
		nc := 1 + int(ncols%4)
		rows := len(data) / 8 / nc
		cols := make([]*chunk.Vector, nc)
		for c := range cols {
			v := &chunk.Vector{Type: schema.Int64}
			if narrow {
				v.Int32 = make([]int32, rows)
			} else {
				v.Ints = make([]int64, rows)
			}
			for r := 0; r < rows; r++ {
				x := int64(binary.LittleEndian.Uint64(data[8*(r*nc+c):]))
				if narrow {
					v.Int32[r] = int32(x)
				} else {
					v.Ints[r] = x
				}
			}
			cols[c] = v
		}
		// Bit 0 asks for a selection; bit 1+r%63 selects row r.
		var sel []int
		n := rows
		if selBits&1 != 0 {
			sel = []int{}
			for r := 0; r < rows; r++ {
				if selBits>>(1+r%63)&1 != 0 {
					sel = append(sel, r)
				}
			}
			n = len(sel)
		}

		const sentinel = 0xA5
		p := int(prefix % 32)
		var want []byte
		for i := 0; i < p; i++ {
			want = append(want, byte('a'+i%26))
		}
		for ri := 0; ri < n; ri++ {
			r := ri
			if sel != nil {
				r = sel[ri]
			}
			want = append(want, '[')
			for c, v := range cols {
				if c > 0 {
					want = append(want, ',')
				}
				x := int64(0)
				if narrow {
					x = int64(v.Int32[r])
				} else {
					x = v.Ints[r]
				}
				want = strconv.AppendInt(want, x, 10)
			}
			want = append(want, ']', '\n')
		}
		room := max(0, len(want)-p+int(slack))
		buf := make([]byte, p+room)
		for i := range buf {
			buf[i] = sentinel
		}
		copy(buf, want[:p])
		got := AppendChunk(buf[:p:p+room], cols, sel, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows of %d columns (narrow %v, selection %v):\n got %q\nwant %q", n, nc, narrow, sel != nil, got, want)
		}
		for i := len(got); i < len(buf); i++ {
			if buf[i] != sentinel {
				t.Fatalf("AppendChunk with %d spare bytes wrote %#x at %d, past its result", room, buf[i], i)
			}
		}
	})
}

// BenchmarkAppendInt formats 4 096 values of one class per op into a
// reused buffer. The digit-count classes each take one branch of appendInt;
// "31bit" is the stream_rows column, uniform in [0, 2^31) — 47% nine
// digits, 53% ten — and "mixed" has a bit length uniform over 1–63, so its
// values change width from one to the next.
func BenchmarkAppendInt(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name   string
		lo, hi int64 // values uniform in [lo, hi)
		mixed  bool  // instead: bit length uniform over 1–63
	}{
		{name: "1-2digits", lo: 0, hi: 100},
		{name: "3-8digits", lo: 100, hi: 1e8},
		{name: "9-10digits", lo: 1e8, hi: 1e10},
		{name: "16digits", lo: 1e15, hi: 1e16},
		{name: "19digits", lo: 1e18, hi: math.MaxInt64},
		{name: "neg", lo: -1 << 31, hi: 0},
		{name: "31bit", lo: 0, hi: 1 << 31},
		{name: "mixed", mixed: true},
	} {
		xs := make([]int64, 4096)
		for i := range xs {
			if c.mixed {
				top := int64(1) << rng.Intn(63)
				xs[i] = top | rng.Int63()&(top-1)
			} else {
				xs[i] = c.lo + rng.Int63n(c.hi-c.lo)
			}
		}
		buf := make([]byte, 0, 4096*21)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, x := range xs {
					buf = appendInt(buf, x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/value")
		})
	}
}

// mixedChunk is a chunk of n rows over (c0 int, c1 float, c2 str) whose
// cells cycle through the edge values.
func mixedChunk(t testing.TB, n int) (*schema.Schema, *chunk.BinaryChunk) {
	sch := schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Float64},
		schema.Column{Name: "c2", Type: schema.Str},
	)
	bc := chunk.NewBinary(sch, 0, n)
	ints, floats, strs := chunk.NewVector(schema.Int64, n), chunk.NewVector(schema.Float64, n), chunk.NewVector(schema.Str, n)
	for i := 0; i < n; i++ {
		ints.Ints[i] = int64(i%7) - 3
		floats.Floats[i] = edgeFloats[i%len(edgeFloats)]
		strs.Strs[i] = edgeStrings[i%len(edgeStrings)]
	}
	if err := errors.Join(bc.SetColumn(0, ints), bc.SetColumn(1, floats), bc.SetColumn(2, strs)); err != nil {
		t.Fatal(err)
	}
	return sch, bc
}

// pageDecoded is bc read back from its pages: its int column comes back
// narrow, its string column with its dictionary.
func pageDecoded(t testing.TB, bc *chunk.BinaryChunk) *chunk.BinaryChunk {
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
	return nb
}

// TestAppendChunkMatchesRows: encoding a chunk straight from its projected
// vectors gives the lines its materialized rows give — with every row
// selected, with a selection, with none qualifying, and with a computed
// (scratch-vector) column — and the chunk read back from its pages, whose
// int column is narrow, gives the same bytes.
func TestAppendChunkMatchesRows(t *testing.T) {
	sch, wide := mixedChunk(t, 500)
	narrow := pageDecoded(t, wide)
	if narrow.Column(0).Int32 == nil {
		t.Fatal("the int column did not decode narrow")
	}
	for _, sql := range []string{
		"SELECT c0, c1, c2 FROM data",
		"SELECT c2, c0 FROM data WHERE c0 < 0",
		"SELECT c0 + 1, c1 FROM data WHERE c0 > 1",
		"SELECT c1 FROM data WHERE c0 > 100",
	} {
		var first []byte
		for _, bc := range []*chunk.BinaryChunk{wide, narrow} {
			got := appendChunkMatchesRows(t, sch, bc, sql)
			if bc == wide {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Errorf("%s: the narrow chunk's lines differ from the wide chunk's", sql)
			}
		}
	}
}

// appendChunkMatchesRows checks AppendChunk against the rows of one chunk
// under one query and returns its bytes.
func appendChunkMatchesRows(t *testing.T, sch *schema.Schema, bc *chunk.BinaryChunk, sql string) []byte {
	q, err := engine.ParseSQL(sql, sch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewPartial(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.ChunkRows(bc)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, row := range rows {
		want = append(appendRow(want, row), '\n')
	}
	var got []byte
	rowsSeen := -1
	if err := p.ChunkVectors(bc, func(cols []*chunk.Vector, sel []int, n int) {
		got, rowsSeen = AppendChunk(nil, cols, sel, n), n
	}); err != nil {
		t.Fatal(err)
	}
	if rowsSeen != len(rows) || !bytes.Equal(got, want) {
		t.Errorf("%s: %d rows from vectors, %d from values; bytes equal: %v", sql, rowsSeen, len(rows), bytes.Equal(got, want))
	}
	if bytes.Count(got, []byte{'\n'}) != len(rows) {
		t.Errorf("%s: %d raw newlines for %d rows", sql, bytes.Count(got, []byte{'\n'}), len(rows))
	}
	return got
}

// intChunk is a chunk of n rows over five int columns c0..c4 of 31-bit
// values: the table stream_rows selects four columns of under a predicate
// on another.
func intChunk(t testing.TB, n int) (*schema.Schema, *chunk.BinaryChunk) {
	var cols []schema.Column
	for i := 0; i < 5; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int64})
	}
	sch := schema.MustNew(cols...)
	bc := chunk.NewBinary(sch, 0, n)
	rng := rand.New(rand.NewSource(31))
	for i := range cols {
		v := chunk.NewVector(schema.Int64, n)
		for r := range v.Ints {
			v.Ints[r] = rng.Int63n(1 << 31)
		}
		if err := bc.SetColumn(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return sch, bc
}

// TestAppendChunkAllocations: encoding a chunk from its vectors into a
// reused buffer allocates a handful of times per chunk on a mixed
// int/float/string projection, not per row, and not at all on an all-int
// one (the stream_rows shape), whether its columns are wide or narrow.
func TestAppendChunkAllocations(t *testing.T) {
	for _, c := range []struct {
		name      string
		table     func(testing.TB, int) (*schema.Schema, *chunk.BinaryChunk)
		sql       string
		maxAllocs float64
	}{
		{"mixed", mixedChunk, "SELECT c0, c1, c2 FROM data WHERE c0 < 2", 8},
		{"ints", intChunk, "SELECT c0, c1, c2, c3 FROM data WHERE c4 < 536870912", 0},
		{"narrow ints", func(t testing.TB, n int) (*schema.Schema, *chunk.BinaryChunk) {
			sch, bc := intChunk(t, n)
			return sch, pageDecoded(t, bc)
		}, "SELECT c0, c1, c2, c3 FROM data WHERE c4 < 536870912", 0},
	} {
		for _, n := range []int{1 << 10, 1 << 16} {
			sch, bc := c.table(t, n)
			q, err := engine.ParseSQL(c.sql, sch)
			if err != nil {
				t.Fatal(err)
			}
			p, err := engine.NewPartial(q, sch)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			encode := func() {
				if err := p.ChunkVectors(bc, func(cols []*chunk.Vector, sel []int, n int) {
					buf = AppendChunk(buf[:0], cols, sel, n)
				}); err != nil {
					t.Fatal(err)
				}
			}
			encode() // size the buffer and the partial's scratch
			if allocs := testing.AllocsPerRun(10, encode); allocs > c.maxAllocs {
				t.Errorf("%s, %d rows: %.0f allocations per chunk, want <= %.0f", c.name, n, allocs, c.maxAllocs)
			}
		}
	}
}

// TestNDJSONConcurrentWritersAndTrailer races row writers of both kinds and
// estimate lines against the trailer: every line that made it is whole, the
// trailer is the last line, and nothing is written after it.
func TestNDJSONConcurrentWritersAndTrailer(t *testing.T) {
	for _, trailer := range []string{"stats", "error"} {
		w := newRecorder()
		n := NewNDJSON(w)
		n.Header([]string{"a", "b"})
		chunkLines := bytes.Repeat([]byte("[7,\"chunk\"]\n"), 300)
		var wg sync.WaitGroup
		begin := make(chan struct{})
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				for i := 0; i < 400; i++ {
					switch g % 3 {
					case 0:
						n.Rows([]engine.Value{iv(int64(i)), sv("row")})
					case 1:
						n.RowLines(chunkLines, 300)
					default:
						n.Line(map[string]any{"estimate": i})
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-begin
			n.Rows([]engine.Value{iv(-1), sv("before the trailer")})
			if trailer == "stats" {
				n.Stats(Stats{Policy: "speculative"})
			} else {
				n.Error(errors.New("shard 2 died"))
			}
		}()
		close(begin)
		wg.Wait()

		got := lines(t, w.Body.String())
		last := got[len(got)-1]
		if !strings.HasPrefix(last, `{"`+trailer+`":`) {
			t.Errorf("%s: last line = %s", trailer, last)
		}
		if !bytes.HasSuffix(w.last, []byte(last+"\n")) {
			t.Errorf("%s: a write followed the trailer's: %q", trailer, w.last)
		}
		for _, l := range got[1 : len(got)-1] {
			if strings.HasPrefix(l, `{"stats"`) || strings.HasPrefix(l, `{"error"`) {
				t.Errorf("%s: trailer before the end", trailer)
			}
		}
	}
}

// discardWriter is a response writer that drops the body.
type discardWriter struct{ hdr http.Header }

func (w discardWriter) Header() http.Header         { return w.hdr }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return io.Discard.Write(p) }

// benchChunk is one 65 536-row chunk in the shape of a benchmark workload:
// "ints", four int columns of 30-bit values, "ints31", the same of 31-bit
// values as stream_rows selects them, or "sam", the string/int mix of a SAM
// read (qname, flag, rname, pos, mapq, cigar).
func benchChunk(b *testing.B, shape string) (*engine.Partial, *chunk.BinaryChunk) {
	const n = 1 << 16
	bits := 30
	if shape == "ints31" {
		bits, shape = 31, "ints"
	}
	var cols []schema.Column
	if shape == "ints" {
		for i := 0; i < 4; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int64})
		}
	} else {
		for _, c := range []struct {
			name string
			typ  schema.Type
		}{{"qname", schema.Str}, {"flag", schema.Int64}, {"rname", schema.Str}, {"pos", schema.Int64}, {"mapq", schema.Int64}, {"cigar", schema.Str}} {
			cols = append(cols, schema.Column{Name: c.name, Type: c.typ})
		}
	}
	sch := schema.MustNew(cols...)
	bc := chunk.NewBinary(sch, 0, n)
	rng := rand.New(rand.NewSource(5))
	for i, c := range cols {
		v := chunk.NewVector(c.Type, n)
		for r := 0; r < n; r++ {
			switch {
			case c.Type == schema.Int64:
				v.Ints[r] = rng.Int63n(1 << bits)
			case c.Name == "qname":
				v.Strs[r] = fmt.Sprintf("read.%d/1", r)
			case c.Name == "rname":
				v.Strs[r] = fmt.Sprintf("chr%d", 1+r%22)
			default:
				v.Strs[r] = fmt.Sprintf("%dM%dD%dM", 10+r%40, 1+r%3, 50-r%40)
			}
		}
		if err := bc.SetColumn(i, v); err != nil {
			b.Fatal(err)
		}
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	q, err := engine.ParseSQL("SELECT "+strings.Join(names, ", ")+" FROM data", sch)
	if err != nil {
		b.Fatal(err)
	}
	p, err := engine.NewPartial(q, sch)
	if err != nil {
		b.Fatal(err)
	}
	return p, bc
}

func reportMrows(b *testing.B, rowsPerOp int) {
	b.ReportMetric(float64(rowsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkNDJSONRows streams one chunk per iteration, materialization
// included, through each entry point: "values" is ChunkRows then Rows,
// "vectors" is ChunkVectors then AppendChunk into a reused buffer then
// RowLines.
func BenchmarkNDJSONRows(b *testing.B) {
	for _, shape := range []string{"ints", "sam", "ints31"} {
		p, bc := benchChunk(b, shape)
		b.Run(shape+"/values", func(b *testing.B) {
			n := NewNDJSON(discardWriter{http.Header{}})
			n.Header(p.Query().ColumnNames())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := p.ChunkRows(bc)
				if err != nil {
					b.Fatal(err)
				}
				n.Rows(rows...)
			}
			reportMrows(b, bc.Rows)
		})
		b.Run(shape+"/vectors", func(b *testing.B) {
			n := NewNDJSON(discardWriter{http.Header{}})
			n.Header(p.Query().ColumnNames())
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.ChunkVectors(bc, func(cols []*chunk.Vector, sel []int, rows int) {
					buf = AppendChunk(buf[:0], cols, sel, rows)
					n.RowLines(buf, rows)
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportMrows(b, bc.Rows)
		})
	}
}

// BenchmarkWriteResult encodes one materialized 65 536-row result per
// iteration as a JSON reply.
func BenchmarkWriteResult(b *testing.B) {
	for _, shape := range []string{"ints", "sam"} {
		p, bc := benchChunk(b, shape)
		rows, err := p.ChunkRows(bc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WriteResult(discardWriter{http.Header{}}, p.Query().ColumnNames(), rows, Stats{})
			}
			reportMrows(b, len(rows))
		})
	}
}
