package engine

import (
	"strings"
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

var testSch = schema.MustNew(
	schema.Column{Name: "a", Type: schema.Int64},
	schema.Column{Name: "b", Type: schema.Int64},
	schema.Column{Name: "f", Type: schema.Float64},
	schema.Column{Name: "s", Type: schema.Str},
)

// testChunk builds a 4-row chunk:
//
//	a: 1 2 3 4
//	b: 10 20 30 40
//	f: 0.5 1.5 2.5 3.5
//	s: "x" "yy" "zzz" "yy"
func testChunk(t *testing.T) *chunk.BinaryChunk {
	t.Helper()
	bc := chunk.NewBinary(testSch, 0, 4)
	a := chunk.NewVector(schema.Int64, 4)
	b := chunk.NewVector(schema.Int64, 4)
	f := chunk.NewVector(schema.Float64, 4)
	s := chunk.NewVector(schema.Str, 4)
	for i := 0; i < 4; i++ {
		a.Ints[i] = int64(i + 1)
		b.Ints[i] = int64((i + 1) * 10)
		f.Floats[i] = float64(i) + 0.5
	}
	s.Strs = []string{"x", "yy", "zzz", "yy"}
	for i, v := range []*chunk.Vector{a, b, f, s} {
		if err := bc.SetColumn(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

func col(t *testing.T, name string) *Col {
	t.Helper()
	c, err := NewCol(testSch, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColEval(t *testing.T) {
	bc := testChunk(t)
	v, err := col(t, "a").Eval(bc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints[2] != 3 {
		t.Errorf("a[2] = %d", v.Ints[2])
	}
	if _, err := NewCol(testSch, "nope"); err == nil {
		t.Error("unknown column should fail")
	}
	// Column absent from chunk.
	partial := chunk.NewBinary(testSch, 1, 2)
	if _, err := col(t, "a").Eval(partial); err == nil {
		t.Error("absent column should fail at eval")
	}
}

func TestConstEval(t *testing.T) {
	bc := testChunk(t)
	for _, c := range []*Const{ConstInt(7), ConstFloat(2.5), ConstStr("hi")} {
		v, err := c.Eval(bc)
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 4 {
			t.Errorf("const vector len = %d", v.Len())
		}
	}
	v, _ := ConstInt(7).Eval(bc)
	if v.Ints[3] != 7 {
		t.Error("const broadcast wrong")
	}
}

func TestArithIntOps(t *testing.T) {
	bc := testChunk(t)
	cases := []struct {
		op   ArithOp
		want []int64 // a OP b
	}{
		{OpAdd, []int64{11, 22, 33, 44}},
		{OpSub, []int64{-9, -18, -27, -36}},
		{OpMul, []int64{10, 40, 90, 160}},
		{OpDiv, []int64{0, 0, 0, 0}},
		{OpMod, []int64{1, 2, 3, 4}},
	}
	for _, c := range cases {
		e, err := NewArith(c.op, col(t, "a"), col(t, "b"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.Eval(bc)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		for i, w := range c.want {
			if v.Ints[i] != w {
				t.Errorf("%v row %d = %d, want %d", c.op, i, v.Ints[i], w)
			}
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	bc := testChunk(t)
	e, err := NewArith(OpAdd, col(t, "a"), col(t, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Type() != schema.Float64 {
		t.Fatalf("int+float should be float, got %v", e.Type())
	}
	v, err := e.Eval(bc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Floats[1] != 2+1.5 {
		t.Errorf("row 1 = %v", v.Floats[1])
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := NewArith(OpAdd, ConstStr("x"), ConstInt(1)); err == nil {
		t.Error("string arithmetic should fail")
	}
	if _, err := NewArith(OpMod, ConstFloat(1), ConstInt(1)); err == nil {
		t.Error("float modulo should fail")
	}
	bc := testChunk(t)
	e, _ := NewArith(OpDiv, col(t, "a"), ConstInt(0))
	if _, err := e.Eval(bc); err == nil {
		t.Error("division by zero should fail")
	}
	em, _ := NewArith(OpMod, col(t, "a"), ConstInt(0))
	if _, err := em.Eval(bc); err == nil {
		t.Error("modulo by zero should fail")
	}
}

func TestCmpOps(t *testing.T) {
	bc := testChunk(t)
	cases := []struct {
		op   CmpOp
		rhs  int64
		want []int64
	}{
		{OpEq, 2, []int64{0, 1, 0, 0}},
		{OpNe, 2, []int64{1, 0, 1, 1}},
		{OpLt, 3, []int64{1, 1, 0, 0}},
		{OpLe, 3, []int64{1, 1, 1, 0}},
		{OpGt, 2, []int64{0, 0, 1, 1}},
		{OpGe, 2, []int64{0, 1, 1, 1}},
	}
	for _, c := range cases {
		e, err := NewCmp(c.op, col(t, "a"), ConstInt(c.rhs))
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.Eval(bc)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range c.want {
			if v.Ints[i] != w {
				t.Errorf("a %v %d row %d = %d, want %d", c.op, c.rhs, i, v.Ints[i], w)
			}
		}
	}
}

func TestCmpStringAndMixed(t *testing.T) {
	bc := testChunk(t)
	e, err := NewCmp(OpEq, col(t, "s"), ConstStr("yy"))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := e.Eval(bc)
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[3] != 1 {
		t.Errorf("string eq = %v", v.Ints)
	}
	// Mixed numeric comparison promotes.
	e2, err := NewCmp(OpGt, col(t, "f"), col(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := e2.Eval(bc)
	// f = 0.5 1.5 2.5 3.5 vs a = 1 2 3 4 → all false... 0.5<1, 1.5<2 etc.
	for i, x := range v2.Ints {
		if x != 0 {
			t.Errorf("f>a row %d should be false", i)
		}
	}
	if _, err := NewCmp(OpEq, col(t, "s"), ConstInt(1)); err == nil {
		t.Error("string vs int comparison should fail")
	}
}

func TestLogic(t *testing.T) {
	bc := testChunk(t)
	lt, _ := NewCmp(OpLt, col(t, "a"), ConstInt(3))  // 1 1 0 0
	gt, _ := NewCmp(OpGt, col(t, "b"), ConstInt(10)) // 0 1 1 1
	and, err := NewLogic(OpAnd, lt, gt)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := and.Eval(bc)
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[2] != 0 {
		t.Errorf("AND = %v", v.Ints)
	}
	or, _ := NewLogic(OpOr, lt, gt)
	v, _ = or.Eval(bc)
	if v.Ints[0] != 1 || v.Ints[3] != 1 {
		t.Errorf("OR = %v", v.Ints)
	}
	not, _ := NewLogic(OpNot, lt, nil)
	v, _ = not.Eval(bc)
	if v.Ints[0] != 0 || v.Ints[2] != 1 {
		t.Errorf("NOT = %v", v.Ints)
	}
	if _, err := NewLogic(OpAnd, ConstStr("x"), lt); err == nil {
		t.Error("non-boolean logic operand should fail")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h__o", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%c", true},
		{"abc", "a%b%c%", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%xpi", false},
		{"5M", "%M%", true},
		{"3S5M", "_S%", true},
		{"%000", "%", true}, // a '%' in the subject is not the wildcard
		{"50%", "%0%", true},
		{"a", "a%a", false},
		{"ba", "%a%b%", false}, // middle segments match in order
		{"a", "%a%a%", false},
		{"aa", "%a%a%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
		if m := compileLike(c.p); m.match(c.s) != c.want {
			t.Errorf("compiled %q on %q = %v, want %v", c.p, c.s, !c.want, c.want)
		}
	}
	// The zero matcher, all a Like literal holds, is the empty pattern.
	var zero likeMatcher
	if !zero.match("") || zero.match("hello") {
		t.Error("the zero likeMatcher does not match exactly the empty string")
	}
}

func TestLikeEval(t *testing.T) {
	bc := testChunk(t)
	l, err := NewLike(col(t, "s"), "y%", false)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := l.Eval(bc)
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[2] != 0 || v.Ints[3] != 1 {
		t.Errorf("LIKE = %v", v.Ints)
	}
	nl, _ := NewLike(col(t, "s"), "y%", true)
	v, _ = nl.Eval(bc)
	if v.Ints[0] != 1 || v.Ints[1] != 0 {
		t.Errorf("NOT LIKE = %v", v.Ints)
	}
	if _, err := NewLike(col(t, "a"), "%", false); err == nil {
		t.Error("LIKE over non-string should fail")
	}
}

func TestDedupColumns(t *testing.T) {
	a := col(t, "a")
	b := col(t, "b")
	sum, _ := NewArith(OpAdd, b, a)
	pred, _ := NewCmp(OpLt, a, ConstInt(5))
	got := DedupColumns(sum, pred, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("DedupColumns = %v, want [0 1]", got)
	}
	if got := DedupColumns(); got != nil {
		t.Errorf("empty DedupColumns = %v", got)
	}
}

func TestExprStrings(t *testing.T) {
	a := col(t, "a")
	e, _ := NewArith(OpAdd, a, ConstInt(1))
	c, _ := NewCmp(OpLe, e, ConstFloat(2.5))
	l, _ := NewLogic(OpNot, c, nil)
	s := l.String()
	for _, want := range []string{"a", "+", "1", "<=", "2.5", "NOT"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	lk, _ := NewLike(col(t, "s"), "a%", true)
	if !strings.Contains(lk.String(), "NOT LIKE") {
		t.Errorf("Like.String() = %q", lk.String())
	}
	if ConstStr("o'k").String() != "'o''k'" {
		t.Errorf("const string quoting = %q", ConstStr("o'k").String())
	}
}

// Property: likeMatch with pattern == s (no wildcards) is equality.
func TestLikeExactProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: "%"+s+"%" matches any string containing s.
func TestLikeContainsProperty(t *testing.T) {
	f := func(pre, mid, post string) bool {
		if strings.ContainsAny(mid, "%_") {
			return true
		}
		return likeMatch(pre+mid+post, "%"+mid+"%")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
