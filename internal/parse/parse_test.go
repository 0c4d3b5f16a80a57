package parse

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/testutil"
	"scanraw/internal/tok"
)

var testSchema = schema.MustNew(
	schema.Column{Name: "id", Type: schema.Int64},
	schema.Column{Name: "score", Type: schema.Float64},
	schema.Column{Name: "name", Type: schema.Str},
)

func tokenized(t *testing.T, text string, upTo int) (*chunk.TextChunk, *chunk.PositionalMap) {
	t.Helper()
	c := &chunk.TextChunk{ID: 0, Data: []byte(text), Lines: testutil.CountLines([]byte(text))}
	tk := &tok.Tokenizer{Delim: ',', MinFields: testSchema.NumColumns()}
	m, err := tk.Tokenize(c, upTo)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestParseAllColumns(t *testing.T) {
	c, m := tokenized(t, "1,2.5,alice\n-7,0.25,bob\n", 3)
	p := &Parser{Schema: testSchema}
	bc, err := p.Parse(c, m, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Rows != 2 {
		t.Fatalf("Rows = %d", bc.Rows)
	}
	if got := bc.Column(0).Ints; got[0] != 1 || got[1] != -7 {
		t.Errorf("ints = %v", got)
	}
	if got := bc.Column(1).Floats; got[0] != 2.5 || got[1] != 0.25 {
		t.Errorf("floats = %v", got)
	}
	if got := bc.Column(2).Strs; got[0] != "alice" || got[1] != "bob" {
		t.Errorf("strs = %v", got)
	}
}

func TestParseSelective(t *testing.T) {
	c, m := tokenized(t, "1,2.5,alice\n2,3.5,bob\n", 3)
	p := &Parser{Schema: testSchema}
	bc, err := p.Parse(c, m, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Has(0) || bc.Has(1) {
		t.Error("selective parse should not materialize unrequested columns")
	}
	if got := bc.Column(2).Strs[1]; got != "bob" {
		t.Errorf("col2[1] = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	p := &Parser{Schema: testSchema}
	// Invalid int.
	c, m := tokenized(t, "xx,1.0,a\n", 3)
	if _, err := p.Parse(c, m, []int{0}); err == nil {
		t.Error("invalid int should fail")
	}
	// Invalid float.
	c, m = tokenized(t, "1,notafloat,a\n", 3)
	if _, err := p.Parse(c, m, []int{1}); err == nil {
		t.Error("invalid float should fail")
	}
	// Column not tokenized.
	c, m = tokenized(t, "1,1.0,a\n", 1)
	if _, err := p.Parse(c, m, []int{2}); err == nil {
		t.Error("parsing beyond the positional map should fail")
	}
	// Column out of schema range.
	c, m = tokenized(t, "1,1.0,a\n", 3)
	if _, err := p.Parse(c, m, []int{7}); err == nil {
		t.Error("out-of-schema column should fail")
	}
	// Row-count mismatch between map and chunk.
	c, m = tokenized(t, "1,1.0,a\n", 3)
	c.Lines = 5
	if _, err := p.Parse(c, m, []int{0}); err == nil {
		t.Error("row-count mismatch should fail")
	}
}

func TestParseWhere(t *testing.T) {
	c, m := tokenized(t, "1,1.0,keep\n2,2.0,drop\n3,3.0,keep\n", 3)
	p := &Parser{Schema: testSchema}
	bc, keep, err := p.ParseWhere(c, m, []int{0, 2}, 2, func(f []byte) bool {
		return bytes.Equal(f, []byte("keep"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if bc.Rows != 2 || len(keep) != 2 || keep[0] != 0 || keep[1] != 2 {
		t.Fatalf("keep = %v, rows = %d", keep, bc.Rows)
	}
	if got := bc.Column(0).Ints; got[0] != 1 || got[1] != 3 {
		t.Errorf("filtered ints = %v", got)
	}
}

func TestParseWhereNoMatches(t *testing.T) {
	c, m := tokenized(t, "1,1.0,a\n2,2.0,b\n", 3)
	p := &Parser{Schema: testSchema}
	bc, keep, err := p.ParseWhere(c, m, []int{0}, 2, func([]byte) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if bc.Rows != 0 || len(keep) != 0 {
		t.Errorf("rows = %d, keep = %v", bc.Rows, keep)
	}
}

func TestParseWhereErrors(t *testing.T) {
	c, m := tokenized(t, "1,1.0,a\n", 1)
	p := &Parser{Schema: testSchema}
	if _, _, err := p.ParseWhere(c, m, []int{0}, 2, func([]byte) bool { return true }); err == nil {
		t.Error("predicate on untokenized column should fail")
	}
}

func TestParseIntCases(t *testing.T) {
	good := map[string]int64{
		"0":                    0,
		"1":                    1,
		"-1":                   -1,
		"+42":                  42,
		"9223372036854775807":  math.MaxInt64,
		"-9223372036854775808": math.MinInt64,
		"0012":                 12,
	}
	for in, want := range good {
		got, err := ParseInt([]byte(in))
		if err != nil {
			t.Errorf("ParseInt(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseInt(%q) = %d, want %d", in, got, want)
		}
	}
	bad := []string{"", "-", "+", "1x", " 1", "1 ", "12.5",
		"9223372036854775808", "-9223372036854775809", "99999999999999999999"}
	for _, in := range bad {
		if _, err := ParseInt([]byte(in)); err == nil {
			t.Errorf("ParseInt(%q) should fail", in)
		}
	}
}

// Property: ParseInt agrees with strconv.ParseInt on every int64.
func TestParseIntMatchesStrconv(t *testing.T) {
	f := func(x int64) bool {
		s := strconv.FormatInt(x, 10)
		got, err := ParseInt([]byte(s))
		return err == nil && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parse(tokenize(print(values))) == values for int tables.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		sch, _ := schema.Uniform(1, schema.Int64, "c")
		var b bytes.Buffer
		for _, v := range vals {
			fmt.Fprintf(&b, "%d\n", v)
		}
		c := &chunk.TextChunk{Data: b.Bytes(), Lines: len(vals)}
		tk := &tok.Tokenizer{Delim: ',', MinFields: 1}
		m, err := tk.Tokenize(c, 1)
		if err != nil {
			return false
		}
		p := &Parser{Schema: sch}
		bc, err := p.Parse(c, m, []int{0})
		if err != nil {
			return false
		}
		for i, v := range vals {
			if bc.Column(0).Ints[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParseFloat(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"0", 0, true},
		{"3.25", 3.25, true},
		{"-12345.75", -12345.75, true},
		{"1e9", 1e9, true},
		{"", 0, false},
		{"abc", 0, false},
		{"1.2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseFloat([]byte(c.in))
		if c.ok != (err == nil) {
			t.Errorf("ParseFloat(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseFloat(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// The error message must not alias the input bytes (strconv's *NumError
	// would): mutate the buffer after the call and check the message.
	buf := []byte("bogus")
	_, err := ParseFloat(buf)
	copy(buf, "XXXXX")
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error retains a view of mutated input: %v", err)
	}
}

// TestParseFloatZeroAlloc pins the acceptance criterion: the success path
// of float conversion performs zero allocations per cell.
func TestParseFloatZeroAlloc(t *testing.T) {
	in := []byte("12345.6789")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseFloat(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseFloat allocates %v times per call, want 0", allocs)
	}
}

// TestParseFloatExactness sweeps the fast path's input space and asserts
// bit-identity with strconv.ParseFloat: the fused and two-stage conversion
// paths must produce the same float bits for every cell, so the fast path
// is allowed exactly zero rounding divergence. The sweep covers plain
// decimals across the mantissa-digit and fraction-digit ranges the fast
// path accepts, the boundaries where it must bail to strconv (>=19 digits,
// mant >= 2^53), signs, dots in every position, and grammar it must
// reject.
func TestParseFloatExactness(t *testing.T) {
	var inputs []string
	// Dot in every position of growing digit strings, both signs.
	digits := "9182736455463728191"
	for n := 1; n <= len(digits); n++ {
		d := digits[:n]
		inputs = append(inputs, d, "-"+d, "+"+d)
		for dot := 0; dot <= n; dot++ {
			v := d[:dot] + "." + d[dot:]
			inputs = append(inputs, v, "-"+v)
		}
	}
	// Mantissa exactness boundary: 2^53 +/- 1 and neighbours.
	for _, m := range []uint64{1<<53 - 2, 1<<53 - 1, 1 << 53, 1<<53 + 1} {
		s := strconv.FormatUint(m, 10)
		inputs = append(inputs, s, "-"+s, s[:10]+"."+s[10:])
	}
	// Long fractions: frac climbs past the exact pow10 table (22 entries).
	for frac := 18; frac <= 25; frac++ {
		inputs = append(inputs, "0."+strings.Repeat("0", frac-1)+"1")
	}
	// Round-trip shortest representations of awkward values.
	for _, f := range []float64{
		0.1, 0.2, 0.3, 1.0 / 3.0, math.Pi, 2.2250738585072014e-308,
		655.35, 0.062561, 8.98846567431158e+15,
	} {
		inputs = append(inputs, strconv.FormatFloat(f, 'f', -1, 64))
	}
	// Grammar edges: all must agree with strconv on accept/reject too.
	inputs = append(inputs,
		"", ".", "-", "+", "-.", ".5", "5.", "-0.0", "+0.0", "00.50",
		"1..2", "1.2.3", "--1", "1-", "1e5", "1E5", "inf", "nan", "0x1p4",
	)
	for _, in := range inputs {
		want, wantErr := strconv.ParseFloat(in, 64)
		got, gotErr := ParseFloat([]byte(in))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("ParseFloat(%q): err %v, strconv err %v", in, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ParseFloat(%q) = %x (%v), strconv = %x (%v)",
				in, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}
