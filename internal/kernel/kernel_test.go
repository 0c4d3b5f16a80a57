package kernel

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

func intSchema(n int) *schema.Schema {
	s, err := schema.Uniform(n, schema.Int64, "c")
	if err != nil {
		panic(err)
	}
	return s
}

func mixedSchema(types ...schema.Type) *schema.Schema {
	cols := make([]schema.Column, len(types))
	for i, t := range types {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: t}
	}
	return schema.MustNew(cols...)
}

func textChunk(id int, text string) *chunk.TextChunk {
	lines := strings.Count(text, "\n")
	if len(text) > 0 && !strings.HasSuffix(text, "\n") {
		lines++
	}
	return &chunk.TextChunk{ID: id, Data: []byte(text), Lines: lines}
}

func TestKernelSelection(t *testing.T) {
	cases := []struct {
		name string
		sch  *schema.Schema
		cols []int
		want string
	}{
		{"dense int prefix", intSchema(4), []int{0, 1, 2, 3}, "int64-subset"},
		{"single leading int", intSchema(4), []int{0}, "int64-subset"},
		{"int subset", intSchema(4), []int{1, 3}, "int64-subset"},
		{"int suffix", intSchema(4), []int{3}, "int64-subset"},
		{"numeric mix", mixedSchema(schema.Int64, schema.Float64), []int{0, 1}, "fused-generic"},
		{"float only", mixedSchema(schema.Int64, schema.Float64), []int{1}, "fused-generic"},
		{"string present", mixedSchema(schema.Int64, schema.Str), []int{0, 1}, "fused-generic"},
		{"string only", mixedSchema(schema.Str, schema.Str), []int{1}, "fused-generic"},
	}
	for _, c := range cases {
		k, err := For(c.sch, c.cols, ',')
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if k.Name() != c.want {
			t.Errorf("%s: selected %q, want %q", c.name, k.Name(), c.want)
		}
	}
}

func TestForRejectsBadColumnSets(t *testing.T) {
	sch := intSchema(4)
	for name, cols := range map[string][]int{
		"empty":        {},
		"unsorted":     {2, 1},
		"duplicate":    {1, 1},
		"negative":     {-1},
		"out of range": {4},
	} {
		if _, err := For(sch, cols, ','); err == nil {
			t.Errorf("%s column set %v: expected error", name, cols)
		}
	}
}

func TestConvertBasic(t *testing.T) {
	sch := mixedSchema(schema.Int64, schema.Float64, schema.Str)
	k, err := For(sch, []int{0, 1, 2}, ',')
	if err != nil {
		t.Fatal(err)
	}
	tc := textChunk(7, "1,2.5,abc\n-42,0.25,\n9223372036854775807,-0.0,x y\n")
	bc, err := k.Convert(tc)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.RecycleColumns()
	if bc.ID != 7 || bc.Rows != 3 {
		t.Fatalf("got chunk %d with %d rows", bc.ID, bc.Rows)
	}
	wantInts := []int64{1, -42, math.MaxInt64}
	wantFloats := []float64{2.5, 0.25, math.Copysign(0, -1)}
	wantStrs := []string{"abc", "", "x y"}
	for r := 0; r < 3; r++ {
		if got := bc.Column(0).Ints[r]; got != wantInts[r] {
			t.Errorf("row %d col 0: got %d, want %d", r, got, wantInts[r])
		}
		if got := bc.Column(1).Floats[r]; math.Float64bits(got) != math.Float64bits(wantFloats[r]) {
			t.Errorf("row %d col 1: got %v, want %v", r, got, wantFloats[r])
		}
		if got := bc.Column(2).Strs[r]; got != wantStrs[r] {
			t.Errorf("row %d col 2: got %q, want %q", r, got, wantStrs[r])
		}
	}
}

func TestConvertCRLFAndEOF(t *testing.T) {
	sch := intSchema(2)
	k, err := For(sch, []int{0, 1}, ',')
	if err != nil {
		t.Fatal(err)
	}
	// CRLF endings, plus a trailing line with a bare '\r' and no newline.
	tc := textChunk(0, "1,2\r\n3,4\r")
	bc, err := k.Convert(tc)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.RecycleColumns()
	if got := bc.Column(1).Ints[0]; got != 2 {
		t.Errorf("CRLF row: col 1 = %d, want 2 (CR leaked into the field?)", got)
	}
	if got := bc.Column(1).Ints[1]; got != 4 {
		t.Errorf("trailing-CR row: col 1 = %d, want 4", got)
	}
}

func TestConvertErrors(t *testing.T) {
	sch := intSchema(3)
	k, err := For(sch, []int{0, 1, 2}, ',')
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{
		"short line":      "1,2,3\n4,5\n",
		"bad digit":       "1,2x,3\n",
		"empty field":     "1,,3\n",
		"overflow":        "1,9223372036854775808,3\n",
		"lone sign":       "1,-,3\n",
		"empty data":      "",
		"only whitespace": "\n\n",
	} {
		tc := textChunk(0, text)
		if name == "empty data" {
			tc.Lines = 2 // claims lines the data does not hold
		}
		if _, err := k.Convert(tc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// MinInt64 is valid; one digit beyond overflows.
	if bc, err := k.Convert(textChunk(0, "0,-9223372036854775808,0\n")); err != nil {
		t.Errorf("MinInt64: unexpected error %v", err)
	} else {
		if got := bc.Column(1).Ints[0]; got != math.MinInt64 {
			t.Errorf("MinInt64: got %d", got)
		}
		bc.RecycleColumns()
	}
	if _, err := k.Convert(textChunk(0, "0,-9223372036854775809,0\n")); err == nil {
		t.Error("MinInt64-1: expected overflow error")
	}
}

// TestConvertOverlongLines: lines carrying more fields than the kernel
// needs are fine — the walk stops at the last requested column, exactly
// like selective tokenizing.
func TestConvertOverlongLines(t *testing.T) {
	sch := intSchema(2)
	k, err := For(sch, []int{0, 1}, ',')
	if err != nil {
		t.Fatal(err)
	}
	bc, err := k.Convert(textChunk(0, "1,2,junk,junk\n3,4,more\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.RecycleColumns()
	if bc.Column(1).Ints[0] != 2 || bc.Column(1).Ints[1] != 4 {
		t.Errorf("got %v", bc.Column(1).Ints)
	}
}

func TestConvertTabDelimited(t *testing.T) {
	sch := mixedSchema(schema.Str, schema.Int64)
	k, err := For(sch, []int{0, 1}, '\t')
	if err != nil {
		t.Fatal(err)
	}
	bc, err := k.Convert(textChunk(0, "read1\t99\nread2\t-7\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.RecycleColumns()
	if bc.Column(0).Strs[1] != "read2" || bc.Column(1).Ints[1] != -7 {
		t.Errorf("got %v / %v", bc.Column(0).Strs, bc.Column(1).Ints)
	}
}

// A string vector decoded from a dictionary page goes back to the pool with
// its codes; a conversion that takes it next must install it without them
// (chunk's TestRecycledVectorDropsCodes covers the other two ways to take it).
func TestConvertDropsRecycledCodes(t *testing.T) {
	sch := mixedSchema(schema.Str)
	k, err := For(sch, []int{0}, ',')
	if err != nil {
		t.Fatal(err)
	}
	dict := chunk.NewVector(schema.Str, 64)
	for i := range dict.Strs {
		dict.Strs[i] = []string{"5M", "3S2M", "1D4M"}[i%3]
	}
	page := chunk.EncodeVector(dict)
	text := strings.Repeat("a\nbb\n", 32)
	reused := 0
	for i := 0; i < 100; i++ {
		coded, err := chunk.DecodeVector(page)
		if err != nil {
			t.Fatal(err)
		}
		if coded.Dict == nil {
			t.Fatal("fixture did not decode as a dictionary page")
		}
		chunk.PutVector(coded)
		bc, err := k.Convert(textChunk(0, text))
		if err != nil {
			t.Fatal(err)
		}
		v := bc.Column(0)
		if v == coded {
			reused++
		}
		if v.Dict != nil || len(v.Codes) != 0 || v.Strs[1] != "bb" {
			t.Fatalf("converted column carries a dictionary of %d entries and %d codes", len(v.Dict), len(v.Codes))
		}
		bc.RecycleColumns()
	}
	if reused == 0 {
		t.Fatal("the pool never handed the coded vector to the kernel; the test checked nothing")
	}
}

// Convert's no-retention contract: once it has returned, the text may be
// overwritten (the operator recycles the buffer at once) and nothing the
// chunk holds — string cells included — changes. The error carries its own
// copy of the offending field too.
func TestConvertRetainsNothingOfTheText(t *testing.T) {
	sch := mixedSchema(schema.Int64, schema.Str, schema.Float64, schema.Str, schema.Int64)
	text := strings.Repeat("17,alpha,2.5,a longer string cell,-9\n0,,1e3,x,42\n", 64)
	for _, cols := range [][]int{{0, 4}, {1, 3}, {0, 1, 2, 3, 4}} {
		k, err := For(sch, cols, ',')
		if err != nil {
			t.Fatal(err)
		}
		want, err := k.Convert(textChunk(3, text))
		if err != nil {
			t.Fatal(err)
		}
		tc := textChunk(3, text)
		got, err := k.Convert(tc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.Data {
			tc.Data[i] = 0xDB
		}
		requireEqualChunks(t, fmt.Sprintf("%s %v after the text was overwritten", k.Name(), cols), want, got, cols)
		want.RecycleColumns()
		got.RecycleColumns()
	}

	k, err := For(sch, []int{0}, ',')
	if err != nil {
		t.Fatal(err)
	}
	tc := textChunk(0, "notanint,a,1,b,2\n")
	_, err = k.Convert(tc)
	if err == nil {
		t.Fatal("malformed integer converted")
	}
	msg := err.Error()
	clear(tc.Data)
	if err.Error() != msg || !strings.Contains(msg, "notanint") {
		t.Errorf("error changed with the text: %q, then %q", msg, err.Error())
	}
}
