package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/parse"
	"scanraw/internal/schema"
	"scanraw/internal/testutil"
	"scanraw/internal/tok"
)

// The differential suite: fused kernels must be byte-identical to the
// tok→parse pipeline — same outputs on success, an error whenever the
// two-stage path errors — across random schemas, column subsets,
// delimiters, CRLF endings, short/overlong lines, and malformed values.

// tokParse runs the two-stage reference path: tokenize upTo the last
// requested column, then parse the requested columns.
func tokParse(sch *schema.Schema, tc *chunk.TextChunk, delim byte, cols []int) (*chunk.BinaryChunk, error) {
	tk := &tok.Tokenizer{Delim: delim, MinFields: sch.NumColumns()}
	pm, err := tk.Tokenize(tc, cols[len(cols)-1]+1)
	if err != nil {
		return nil, err
	}
	defer chunk.PutPositionalMap(pm)
	p := &parse.Parser{Schema: sch}
	return p.Parse(tc, pm, cols)
}

// requireEqualChunks fails the test unless the two chunks hold identical
// values in every requested column. Floats compare by bit pattern —
// "byte-identical" includes the sign of zero and NaN payloads.
func requireEqualChunks(t *testing.T, label string, want, got *chunk.BinaryChunk, cols []int) {
	t.Helper()
	if want.ID != got.ID || want.Rows != got.Rows {
		t.Fatalf("%s: chunk mismatch: want id=%d rows=%d, got id=%d rows=%d",
			label, want.ID, want.Rows, got.ID, got.Rows)
	}
	for _, c := range cols {
		wv, gv := want.Column(c), got.Column(c)
		if wv == nil || gv == nil {
			t.Fatalf("%s: column %d missing (want %v, got %v)", label, c, wv != nil, gv != nil)
		}
		if wv.Type != gv.Type {
			t.Fatalf("%s: column %d type mismatch", label, c)
		}
		for r := 0; r < want.Rows; r++ {
			switch wv.Type {
			case schema.Int64:
				if wv.Ints[r] != gv.Ints[r] {
					t.Fatalf("%s: col %d row %d: want %d, got %d", label, c, r, wv.Ints[r], gv.Ints[r])
				}
			case schema.Float64:
				if math.Float64bits(wv.Floats[r]) != math.Float64bits(gv.Floats[r]) {
					t.Fatalf("%s: col %d row %d: want %v, got %v", label, c, r, wv.Floats[r], gv.Floats[r])
				}
			default:
				if wv.Strs[r] != gv.Strs[r] {
					t.Fatalf("%s: col %d row %d: want %q, got %q", label, c, r, wv.Strs[r], gv.Strs[r])
				}
			}
		}
	}
}

// randSchema draws 1-10 columns of random types.
func randSchema(rng *rand.Rand) *schema.Schema {
	n := 1 + rng.Intn(10)
	cols := make([]schema.Column, n)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Type(rng.Intn(3))}
	}
	return schema.MustNew(cols...)
}

// randCols draws a non-empty sorted subset of the schema's ordinals.
func randCols(rng *rand.Rand, ncols int) []int {
	var cols []int
	for c := 0; c < ncols; c++ {
		if rng.Intn(2) == 0 {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		cols = []int{rng.Intn(ncols)}
	}
	return cols
}

// randField produces a value for one cell; mostly valid for the column
// type, occasionally malformed (the differential property covers errors).
func randField(rng *rand.Rand, t schema.Type, delim byte, corrupt bool) string {
	if corrupt {
		return [...]string{"x9", "", "-", "9223372036854775808", "1.2.3", "0x10", "nanx"}[rng.Intn(7)]
	}
	switch t {
	case schema.Int64:
		switch rng.Intn(8) {
		case 0:
			return "0"
		case 1:
			return strconv.FormatInt(math.MinInt64, 10)
		case 2:
			return strconv.FormatInt(math.MaxInt64, 10)
		case 3:
			return "+" + strconv.Itoa(rng.Intn(1000))
		default:
			return strconv.FormatInt(rng.Int63n(1<<40)-(1<<39), 10)
		}
	case schema.Float64:
		switch rng.Intn(8) {
		case 0:
			return ".5"
		case 1:
			return "5."
		case 2:
			return "-0.0"
		case 3:
			return strconv.FormatFloat(rng.NormFloat64()*1e9, 'e', -1, 64)
		case 4:
			return "0.000000000000000000000001"
		default:
			return strconv.FormatFloat(rng.NormFloat64()*1000, 'f', -1, 64)
		}
	default:
		n := rng.Intn(10)
		b := make([]byte, 0, n)
		for i := 0; i < n; i++ {
			ch := byte(' ' + rng.Intn(95))
			if ch == delim || ch == '\n' || ch == '\r' {
				ch = '_'
			}
			b = append(b, ch)
		}
		return string(b)
	}
}

// randChunk builds a chunk for the schema: random row count, per-line CRLF,
// sometimes short lines, corrupt cells, a missing trailing newline, or a
// lying line count.
func randChunk(rng *rand.Rand, sch *schema.Schema, delim byte) *chunk.TextChunk {
	rows := rng.Intn(30)
	var data []byte
	for r := 0; r < rows; r++ {
		nf := sch.NumColumns()
		if rng.Intn(20) == 0 {
			nf = rng.Intn(nf) // short line
		} else if rng.Intn(10) == 0 {
			nf += 1 + rng.Intn(3) // overlong line: extra trailing fields
		}
		for f := 0; f < nf; f++ {
			if f > 0 {
				data = append(data, delim)
			}
			t := schema.Str
			if f < sch.NumColumns() {
				t = sch.Column(f).Type
			}
			data = append(data, randField(rng, t, delim, rng.Intn(40) == 0)...)
		}
		switch rng.Intn(4) {
		case 0:
			data = append(data, '\r', '\n')
		default:
			data = append(data, '\n')
		}
	}
	if rows > 0 && rng.Intn(8) == 0 {
		data = data[:len(data)-1] // drop the final newline
		if len(data) > 0 && data[len(data)-1] == '\r' && rng.Intn(2) == 0 {
			data = data[:len(data)-1]
		}
	}
	claimed := rows
	if rng.Intn(25) == 0 {
		claimed = rows + 1 + rng.Intn(2) // claims lines the data lacks
	}
	return &chunk.TextChunk{ID: rng.Intn(100), Data: data, Lines: claimed}
}

func TestFusedMatchesTokParseRandomized(t *testing.T) {
	delims := []byte{',', '\t', ';', '|'}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := randSchema(rng)
		delim := delims[rng.Intn(len(delims))]
		cols := randCols(rng, sch.NumColumns())
		tc := randChunk(rng, sch, delim)

		k, err := For(sch, cols, delim)
		if err != nil {
			t.Fatalf("seed %d: For: %v", seed, err)
		}
		want, wantErr := tokParse(sch, tc, delim, cols)
		got, gotErr := k.Convert(tc)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("seed %d (kernel %s, cols %v, delim %q):\n tok+parse err: %v\n fused err:     %v\n data: %q",
				seed, k.Name(), cols, delim, wantErr, gotErr, tc.Data)
		}
		if wantErr != nil {
			continue
		}
		requireEqualChunks(t, fmt.Sprintf("seed %d (kernel %s, cols %v)", seed, k.Name(), cols), want, got, cols)
		want.RecycleColumns()
		got.RecycleColumns()
	}
}

// TestIntFieldWordBoundaries aims the differential property at the edges of
// parseIntField's word path: every digit count across the 8- and 16-digit
// word boundaries and the int64 range, with and without a sign, leading
// zeros, every terminator and delimiter the byte loop is kept for, and the
// field at every distance from the end of the data, so both sides of the
// load guard run — in both kernels, and after a gap skip.
func TestIntFieldWordBoundaries(t *testing.T) {
	var values []string
	for n := 1; n <= 20; n++ {
		for _, digits := range []string{"98765432109876543210"[:n], "12345678901234567890"[:n], strings.Repeat("0", n-1) + "7"} {
			values = append(values, digits, "-"+digits, "+"+digits)
		}
	}
	values = append(values, "0", "-0", "", "-", "+", "--1", "-+1",
		strconv.FormatInt(math.MaxInt64, 10), strconv.FormatInt(math.MinInt64, 10), "-9223372036854775809",
		"9999999999999999", "-9999999999999999", "10000000000000000", "-10000000000000000")
	shapes := []struct {
		sch    *schema.Schema
		cols   []int
		lead   string // what precedes the field on its line; "," stands for the delimiter
		kernel string
	}{
		{intSchema(1), []int{0}, "", "int64-subset"},
		{intSchema(2), []int{1}, "9,", "int64-subset"},
		{mixedSchema(schema.Str, schema.Int64), []int{0, 1}, ",", "fused-generic"},
	}
	for _, sh := range shapes {
		for _, delim := range []byte{',', '\t', '-', '+', '5'} {
			k, err := For(sh.sch, sh.cols, delim)
			if err != nil {
				t.Fatal(err)
			}
			if k.Name() != sh.kernel {
				t.Fatalf("cols %v selected %s, want %s", sh.cols, k.Name(), sh.kernel)
			}
			d := string(delim)
			lead := strings.ReplaceAll(sh.lead, ",", d)
			// A letter, and the two bytes either side of the digits.
			for _, term := range []string{d + "7\n", "\n", "\r\n", "\r7\n", "", "a\n", "/\n", ":\n"} {
				for _, v := range values {
					for pad := 0; pad <= 20; pad++ {
						// pad more bytes follow the field's line: a line of
						// the same shape holding zeros, unterminated when short.
						var rest string
						switch {
						case pad == 0:
						case term == "" || pad < len(lead)+1:
							continue
						case pad == len(lead)+1:
							rest = lead + "0"
						default:
							rest = lead + strings.Repeat("0", pad-len(lead)-1) + "\n"
						}
						data := []byte(lead + v + term + rest)
						tc := &chunk.TextChunk{Data: data, Lines: testutil.CountLines(data)}
						want, wantErr := tokParse(sh.sch, tc, delim, sh.cols)
						got, gotErr := k.Convert(tc)
						if (wantErr != nil) != (gotErr != nil) {
							t.Fatalf("%s, delim %q, data %q:\n tok+parse err: %v\n fused err:     %v", k.Name(), delim, data, wantErr, gotErr)
						}
						if wantErr != nil {
							continue
						}
						requireEqualChunks(t, fmt.Sprintf("%s, delim %q, data %q", k.Name(), delim, data), want, got, sh.cols)
						want.RecycleColumns()
						got.RecycleColumns()
					}
				}
			}
		}
	}
}
