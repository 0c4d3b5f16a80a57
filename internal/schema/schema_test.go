package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		t    Type
		want string
	}{
		{Int64, "BIGINT"},
		{Float64, "DOUBLE"},
		{Str, "VARCHAR"},
		{Type(42), "Type(42)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Type(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, ty := range []Type{Int64, Float64, Str} {
		got, err := ParseType(ty.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", ty.String(), err)
		}
		if got != ty {
			t.Errorf("ParseType(%q) = %v, want %v", ty.String(), got, ty)
		}
	}
}

func TestParseTypeAliases(t *testing.T) {
	cases := map[string]Type{
		"int": Int64, "Integer": Int64, "LONG": Int64,
		"float": Float64, "real": Float64,
		"text": Str, " string ": Str,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := New(Column{Name: "", Type: Int64}); err == nil {
		t.Error("blank name should fail")
	}
	if _, err := New(Column{Name: "a", Type: Type(9)}); err == nil {
		t.Error("invalid type should fail")
	}
	if _, err := New(Column{Name: "a", Type: Int64}, Column{Name: "a", Type: Str}); err == nil {
		t.Error("duplicate name should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew()
}

func TestUniform(t *testing.T) {
	s, err := Uniform(4, Int64, "c")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumColumns() != 4 {
		t.Fatalf("NumColumns = %d, want 4", s.NumColumns())
	}
	for i := 0; i < 4; i++ {
		c := s.Column(i)
		if c.Type != Int64 {
			t.Errorf("col %d type = %v", i, c.Type)
		}
		if want := "c" + string(rune('0'+i)); c.Name != want {
			t.Errorf("col %d name = %q, want %q", i, c.Name, want)
		}
	}
	if _, err := Uniform(0, Int64, "c"); err == nil {
		t.Error("Uniform(0) should fail")
	}
}

func TestIndex(t *testing.T) {
	s := MustNew(Column{"a", Int64}, Column{"b", Str})
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Errorf("Index(b) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should be absent")
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(Column{"a", Int64}, Column{"b", Str})
	b := MustNew(Column{"a", Int64}, Column{"b", Str})
	c := MustNew(Column{"a", Int64}, Column{"b", Float64})
	if !a.Equal(a) || !a.Equal(b) {
		t.Error("identical schemas should be Equal")
	}
	if a.Equal(c) || a.Equal(nil) {
		t.Error("different schemas should not be Equal")
	}
	d := MustNew(Column{"a", Int64})
	if a.Equal(d) {
		t.Error("different lengths should not be Equal")
	}
}

func TestString(t *testing.T) {
	s := MustNew(Column{"id", Int64}, Column{"name", Str})
	want := "(id BIGINT, name VARCHAR)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: Uniform(n) always yields n distinct columns whose indices
// round-trip through Index.
func TestUniformIndexProperty(t *testing.T) {
	f := func(n uint8) bool {
		cols := int(n%64) + 1
		s, err := Uniform(cols, Str, "x")
		if err != nil {
			return false
		}
		for i := 0; i < cols; i++ {
			j, ok := s.Index(s.Column(i).Name)
			if !ok || j != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColumnsCopyIsolated(t *testing.T) {
	s := MustNew(Column{"a", Int64}, Column{"b", Str})
	cols := s.Columns()
	cols[0].Name = "mutated"
	if s.Column(0).Name != "a" {
		t.Error("Columns() must return a copy")
	}
	if !strings.Contains(s.String(), "a BIGINT") {
		t.Error("schema mutated through Columns()")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []*Schema{
		MustNew(Column{"a", Int64}),
		MustNew(Column{"a", Int64}, Column{"b", Float64}, Column{"c", Str}),
		func() *Schema { s, _ := Uniform(64, Int64, "c"); return s }(),
	} {
		back, err := ParseSpec(s.Spec())
		if err != nil || !back.Equal(s) {
			t.Errorf("ParseSpec(%q) = %v, %v", s.Spec(), back, err)
		}
	}
	if got := MustNew(Column{"a", Int64}, Column{"b", Str}).Spec(); got != "a:BIGINT,b:VARCHAR" {
		t.Errorf("Spec = %q", got)
	}
}

func TestParseSpec(t *testing.T) {
	want := MustNew(Column{"a", Int64}, Column{"b", Float64}, Column{"c", Str})
	for _, spec := range []string{
		"a:int,b:float,c:string",
		" a : INT , b:double,\tc : varchar ",
	} {
		got, err := ParseSpec(spec)
		if err != nil || !got.Equal(want) {
			t.Errorf("ParseSpec(%q) = %v, %v", spec, got, err)
		}
	}
	for _, bad := range []string{
		"", " ", "a", "a:int,", ",a:int", "a:int,b", ":int", " :int", "a:", "a:blob", "a:int,a:int",
	} {
		if s, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = %v, want an error", bad, s)
		}
	}
}
