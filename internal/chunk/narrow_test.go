package chunk

import (
	"math"
	"testing"

	"scanraw/internal/schema"
)

// An int32 page decodes narrow: Int32 holds the values at the page's width,
// Ints stays nil, and Len and IntAt read the narrow form. Encoding
// it again gives the page it came from, byte for byte.
func TestNarrowVectorRepresentation(t *testing.T) {
	vals := []int64{0, math.MinInt32, math.MaxInt32, -1, 16, -16, 42}
	w := NewVector(schema.Int64, len(vals))
	copy(w.Ints, vals)
	p := EncodeVector(w)
	if p[0] != tagInt32 {
		t.Fatalf("fixture page tag %#x, want the int32 tag", p[0])
	}
	v, err := DecodeVector(p)
	if err != nil {
		t.Fatal(err)
	}
	defer PutVector(v)
	if v.Ints != nil || len(v.Int32) != len(vals) {
		t.Fatalf("decoded %d int32 and %d int64 values, want %d int32 only", len(v.Int32), len(v.Ints), len(vals))
	}
	if v.Len() != len(vals) {
		t.Errorf("Len %d, want %d", v.Len(), len(vals))
	}
	for i, x := range vals {
		if v.IntAt(i) != x {
			t.Errorf("IntAt(%d) = %d, want %d", i, v.IntAt(i), x)
		}
	}
	if again := EncodeVector(v); string(again) != string(p) {
		t.Errorf("re-encoded narrow page differs from the page it was decoded from")
	}
	if msg := reprViolation(v, len(vals)); msg != "" {
		t.Error(msg)
	}
}

// Widen hands a wide vector's own values back with no scratch, and a narrow
// vector's values sign-extended into a pooled scratch vector, leaving the
// narrow vector as it was.
func TestWidenLeavesTheVector(t *testing.T) {
	narrow := &Vector{Type: schema.Int64, Int32: []int32{math.MinInt32, -7, 0, math.MaxInt32}}
	ints, scratch := Widen(narrow)
	if scratch == nil || scratch.Int32 != nil || &scratch.Ints[0] != &ints[0] {
		t.Fatal("a narrow vector's widened values are not a wide pooled scratch")
	}
	for i, x := range narrow.Int32 {
		if ints[i] != int64(x) {
			t.Errorf("widened value %d = %d, want %d", i, ints[i], x)
		}
	}
	if narrow.Ints != nil || narrow.Int32[0] != math.MinInt32 {
		t.Error("Widen wrote into the vector it read")
	}
	PutVector(scratch)

	wide := NewVector(schema.Int64, 3)
	ints, scratch = Widen(wide)
	if scratch != nil || &ints[0] != &wide.Ints[0] {
		t.Error("a wide vector was copied")
	}
}

// A narrow vector goes back to a pool of its own: a GetVector after putting
// it never hands out a vector holding int32 values, and a decode of an
// int32 page never one holding int64 values.
func TestNarrowPoolKeepsRepresentations(t *testing.T) {
	for i := 0; i < 100; i++ {
		PutVector(&Vector{Type: schema.Int64, Int32: make([]int32, 64)})
		w := GetVector(schema.Int64, 64)
		if w.Int32 != nil {
			t.Fatal("GetVector handed out a narrow vector")
		}
		PutVector(w)
		n, err := DecodeVector(EncodeVector(NewVector(schema.Int64, 64)))
		if err != nil {
			t.Fatal(err)
		}
		if n.Ints != nil {
			t.Fatal("an int32 page decoded into a vector holding int64 values")
		}
		PutVector(n)
	}
}

func TestReprViolation(t *testing.T) {
	for name, c := range map[string]struct {
		v    *Vector
		rows int
		bad  bool
	}{
		"wide":        {NewVector(schema.Int64, 3), 3, false},
		"narrow":      {&Vector{Type: schema.Int64, Int32: make([]int32, 3)}, 3, false},
		"both":        {&Vector{Type: schema.Int64, Int32: make([]int32, 3), Ints: make([]int64, 3)}, 3, true},
		"narrow long": {&Vector{Type: schema.Int64, Int32: make([]int32, 4)}, 3, true},
		"wide short":  {NewVector(schema.Int64, 2), 3, true},
		"float":       {NewVector(schema.Float64, 2), 3, false},
	} {
		if got := reprViolation(c.v, c.rows) != ""; got != c.bad {
			t.Errorf("%s: violation %v, want %v", name, got, c.bad)
		}
	}
}
