package chunk

import (
	"math"
	"slices"
	"testing"

	"scanraw/internal/schema"
)

// fuzzSeeds is FuzzDecodeVector's seed corpus: one page of every kind, a
// dictionary page that uses every code, an empty page, and a dictionary
// header claiming 2^32-1 rows.
func fuzzSeeds() [][]byte {
	mk := func(v *Vector) []byte { return EncodeVector(v) }
	iv := NewVector(schema.Int64, 3)
	iv.Ints = []int64{1, -5, 1 << 40}
	nv := NewVector(schema.Int64, 2)
	nv.Ints = []int64{7, 9} // narrow path
	sv := NewVector(schema.Str, 4)
	sv.Strs = []string{"a", "bb", "a", "bb"} // dictionary path
	lv := NewVector(schema.Str, 2)
	lv.Strs = []string{"unique-one", "unique-two"} // plain string path
	fv := NewVector(schema.Float64, 2)
	fv.Floats = []float64{1.5, -2.5}
	all := NewVector(schema.Str, 512) // 256 entries, each row's twice
	for i := range all.Strs {
		all.Strs[i] = string(rune('0' + i%256))
	}
	return [][]byte{mk(iv), mk(nv), mk(sv), mk(lv), mk(fv), mk(all), {}, {0x82, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}}
}

// FuzzDecodeVector feeds arbitrary bytes to the page decoder. It must
// return an error or a valid vector — never panic — and any page that
// decodes successfully must re-encode and decode to the same values
// (decode is a left inverse of encode on its image). A dictionary page that
// decodes carries its codes, and they describe its strings; no other page
// carries any.
func FuzzDecodeVector(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := DecodeVector(p)
		if err != nil {
			return
		}
		if !v.Type.Valid() {
			t.Fatalf("decoded invalid type %v", v.Type)
		}
		if (v.Dict != nil) != (p[0] == tagStrDict) {
			t.Fatalf("page tag %#x decoded with a dictionary of %d entries", p[0], len(v.Dict))
		}
		if msg := codeViolation(v); msg != "" {
			t.Fatal(msg)
		}
		again, err := DecodeVector(EncodeVector(v))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !vectorsBitEqual(again, v) {
			t.Fatal("decode∘encode not idempotent")
		}
	})
}

// vectorsBitEqual compares vectors with bitwise float equality (NaN bit
// patterns round-trip exactly; reflect.DeepEqual would call NaN != NaN). An
// empty vector equals an empty vector whether or not its slice is nil: a
// pooled one never is, a fresh one is. Int64 values are read through IntAt,
// so a narrow vector equals a wide one of the same values.
func vectorsBitEqual(a, b *Vector) bool {
	if a.Type != b.Type || a.Len() != b.Len() {
		return false
	}
	switch a.Type {
	case schema.Float64:
		for i := range a.Floats {
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				return false
			}
		}
		return true
	case schema.Int64:
		for i := 0; i < a.Len(); i++ {
			if a.IntAt(i) != b.IntAt(i) {
				return false
			}
		}
		return true
	default:
		return slices.Equal(a.Strs, b.Strs)
	}
}
