package chunk

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"scanraw/internal/schema"
)

func TestEncodeDecodeInt(t *testing.T) {
	v := NewVector(schema.Int64, 3)
	v.Ints[0], v.Ints[1], v.Ints[2] = -1, 0, math.MaxInt64
	got, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ints, v.Ints) || got.Type != schema.Int64 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestEncodeDecodeFloat(t *testing.T) {
	v := NewVector(schema.Float64, 4)
	v.Floats[0], v.Floats[1], v.Floats[2], v.Floats[3] = 0, -2.5, math.Inf(1), math.SmallestNonzeroFloat64
	got, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Floats, v.Floats) {
		t.Errorf("round trip = %v, want %v", got.Floats, v.Floats)
	}
}

func TestEncodeDecodeNaN(t *testing.T) {
	v := NewVector(schema.Float64, 1)
	v.Floats[0] = math.NaN()
	got, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Floats[0]) {
		t.Errorf("NaN did not survive: %v", got.Floats[0])
	}
}

func TestEncodeDecodeStr(t *testing.T) {
	v := NewVector(schema.Str, 4)
	v.Strs = []string{"", "a", "hello world", "tab\tand\nnewline"}
	got, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Strs, v.Strs) {
		t.Errorf("round trip = %q", got.Strs)
	}
}

func TestEncodeEmptyVector(t *testing.T) {
	for _, ty := range []schema.Type{schema.Int64, schema.Float64, schema.Str} {
		v := NewVector(ty, 0)
		got, err := DecodeVector(EncodeVector(v))
		if err != nil {
			t.Fatalf("%v: %v", ty, err)
		}
		if got.Len() != 0 || got.Type != ty {
			t.Errorf("%v: got %+v", ty, got)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {0, 0},
		"bad type tag":     {77, 1, 0, 0, 0},
		"truncated ints":   append([]byte{0}, []byte{2, 0, 0, 0, 1, 2, 3}...),
		"truncated lens":   append([]byte{2}, []byte{3, 0, 0, 0, 1, 0}...),
		"truncated string": append([]byte{2}, []byte{1, 0, 0, 0, 5, 0, 0, 0, 'a', 'b'}...),
	}
	for name, p := range cases {
		if _, err := DecodeVector(p); err == nil {
			t.Errorf("%s: DecodeVector should fail", name)
		}
	}
}

func TestDictionaryEncoding(t *testing.T) {
	// Low-cardinality strings use the dictionary path and shrink.
	v := NewVector(schema.Str, 1000)
	for i := range v.Strs {
		v.Strs[i] = []string{"chr1", "chr2", "chr3"}[i%3]
	}
	p := EncodeVector(v)
	if p[0] != tagStrDict {
		t.Fatalf("tag = %#x, want dictionary", p[0])
	}
	// 1000 codes + 3 entries + headers: far below plain (~8 KB).
	if len(p) > 1100 {
		t.Errorf("dictionary page = %d bytes", len(p))
	}
	got, err := DecodeVector(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Strs, v.Strs) {
		t.Error("dictionary round trip mismatch")
	}
	// High-cardinality strings fall back to plain encoding.
	u := NewVector(schema.Str, 300)
	for i := range u.Strs {
		u.Strs[i] = fmt.Sprintf("unique-%d", i)
	}
	if EncodeVector(u)[0] != byte(schema.Str) {
		t.Error("high-cardinality vector should use plain encoding")
	}
}

func TestDictionaryDecodeCorrupt(t *testing.T) {
	v := NewVector(schema.Str, 10)
	for i := range v.Strs {
		v.Strs[i] = []string{"a", "b"}[i%2]
	}
	p := EncodeVector(v)
	if p[0] != tagStrDict {
		t.Skip("dictionary not chosen for this shape")
	}
	for cut := 1; cut < len(p); cut += 3 {
		if _, err := DecodeVector(p[:cut]); err == nil && cut < len(p) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Out-of-range code.
	bad := append([]byte(nil), p...)
	bad[len(bad)-1] = 0xFF
	if _, err := DecodeVector(bad); err == nil {
		t.Error("out-of-range code not detected")
	}
}

// Property: int vectors round-trip exactly.
func TestIntRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		v := &Vector{Type: schema.Int64, Ints: vals}
		got, err := DecodeVector(EncodeVector(v))
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return got.Len() == 0
		}
		return reflect.DeepEqual(got.Ints, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string vectors round-trip exactly, including embedded NULs and
// arbitrary bytes.
func TestStrRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		v := &Vector{Type: schema.Str, Strs: vals}
		got, err := DecodeVector(EncodeVector(v))
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return got.Len() == 0
		}
		return reflect.DeepEqual(got.Strs, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding size is monotone in content for strings (sanity check
// on the page-size accounting used by the WRITE thread).
func TestEncodeSizeMatchesMemEstimate(t *testing.T) {
	// Small values use the narrow 4-byte encoding.
	v := NewVector(schema.Int64, 1000)
	p := EncodeVector(v)
	if len(p) != 5+4000 {
		t.Errorf("encoded narrow int page size = %d, want 4005", len(p))
	}
	// A single wide value forces the 8-byte encoding.
	v.Ints[7] = 1 << 40
	p = EncodeVector(v)
	if len(p) != 5+8000 {
		t.Errorf("encoded wide int page size = %d, want 8005", len(p))
	}
}

func TestNarrowEncodingRoundTrip(t *testing.T) {
	v := NewVector(schema.Int64, 4)
	v.Ints = []int64{0, -1 << 31, 1<<31 - 1, 42}
	got, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints != nil || !vectorsBitEqual(got, v) {
		t.Errorf("narrow round trip = %v (int64s %v)", got.Int32, got.Ints)
	}
	// Boundary: values just outside int32 must use and survive the wide
	// encoding.
	w := NewVector(schema.Int64, 2)
	w.Ints = []int64{1 << 31, -1<<31 - 1}
	got, err = DecodeVector(EncodeVector(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ints, w.Ints) {
		t.Errorf("wide round trip = %v", got.Ints)
	}
}
