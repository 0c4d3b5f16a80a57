package chunk

import (
	"testing"

	"scanraw/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Column{Name: "a", Type: schema.Int64},
		schema.Column{Name: "b", Type: schema.Float64},
		schema.Column{Name: "c", Type: schema.Str},
	)
}

func TestPositionalMapField(t *testing.T) {
	// Two rows, two cols each: "ab,cde\nf,gh\n"
	m := &PositionalMap{
		NumRows: 2, NumCols: 2,
		Starts:  []int32{0, 3, 7, 9},
		Ends:    []int32{2, 6, 8, 11},
		LineEnd: []int32{6, 11},
	}
	s, e := m.Field(0, 1)
	if s != 3 || e != 6 {
		t.Errorf("Field(0,1) = %d,%d", s, e)
	}
	s, e = m.Field(1, 0)
	if s != 7 || e != 8 {
		t.Errorf("Field(1,0) = %d,%d", s, e)
	}
	defer func() {
		if recover() == nil {
			t.Error("Field beyond NumCols should panic")
		}
	}()
	m.Field(0, 2)
}

func TestNewVectorLen(t *testing.T) {
	for _, ty := range []schema.Type{schema.Int64, schema.Float64, schema.Str} {
		v := NewVector(ty, 7)
		if v.Len() != 7 {
			t.Errorf("NewVector(%v,7).Len() = %d", ty, v.Len())
		}
	}
}

func TestNewVectorInvalidType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVector with invalid type should panic")
		}
	}()
	NewVector(schema.Type(99), 1)
}

func TestBinaryChunkSetGet(t *testing.T) {
	sch := testSchema(t)
	b := NewBinary(sch, 3, 4)
	if b.ID != 3 || b.Rows != 4 || !b.Schema().Equal(sch) {
		t.Fatalf("NewBinary fields wrong: %+v", b)
	}
	if b.Has(0) || b.Column(0) != nil {
		t.Error("fresh chunk should have no columns")
	}
	v := NewVector(schema.Int64, 4)
	if err := b.SetColumn(0, v); err != nil {
		t.Fatal(err)
	}
	if !b.Has(0) || b.Column(0) != v {
		t.Error("SetColumn did not install the vector")
	}
	// Type mismatch.
	if err := b.SetColumn(1, NewVector(schema.Int64, 4)); err == nil {
		t.Error("type mismatch should fail")
	}
	// Length mismatch.
	if err := b.SetColumn(1, NewVector(schema.Float64, 3)); err == nil {
		t.Error("length mismatch should fail")
	}
	// Out of range.
	if err := b.SetColumn(5, v); err == nil {
		t.Error("out-of-range ordinal should fail")
	}
	if b.Column(-1) != nil || b.Column(99) != nil {
		t.Error("out-of-range Column should return nil")
	}
}

func TestBinaryChunkPresent(t *testing.T) {
	sch := testSchema(t)
	b := NewBinary(sch, 0, 2)
	if err := b.SetColumn(2, NewVector(schema.Str, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetColumn(0, NewVector(schema.Int64, 2)); err != nil {
		t.Fatal(err)
	}
	p := b.Present()
	if len(p) != 2 || p[0] != 0 || p[1] != 2 {
		t.Errorf("Present = %v, want [0 2]", p)
	}
	if !b.HasAll([]int{0, 2}) {
		t.Error("HasAll([0,2]) should be true")
	}
	if b.HasAll([]int{0, 1}) {
		t.Error("HasAll([0,1]) should be false")
	}
}

func TestBinaryChunkMerge(t *testing.T) {
	sch := testSchema(t)
	a := NewBinary(sch, 0, 2)
	va := NewVector(schema.Int64, 2)
	va.Ints[0] = 11
	if err := a.SetColumn(0, va); err != nil {
		t.Fatal(err)
	}
	b := NewBinary(sch, 0, 2)
	vb := NewVector(schema.Float64, 2)
	if err := b.SetColumn(1, vb); err != nil {
		t.Fatal(err)
	}
	// b also has col 0 with a different value — Merge must not overwrite.
	vb0 := NewVector(schema.Int64, 2)
	vb0.Ints[0] = 99
	if err := b.SetColumn(0, vb0); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.Has(1) {
		t.Error("Merge should add missing column 1")
	}
	if a.Column(0).Ints[0] != 11 {
		t.Error("Merge must not overwrite existing columns")
	}
	// Mismatched chunks refuse to merge.
	c := NewBinary(sch, 1, 2)
	if err := a.Merge(c); err == nil {
		t.Error("merging different chunk IDs should fail")
	}
	d := NewBinary(sch, 0, 3)
	if err := a.Merge(d); err == nil {
		t.Error("merging different row counts should fail")
	}
}
