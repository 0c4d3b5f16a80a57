package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// The binary kernels (Arith, Cmp) pick a loop per operator and operand shape;
// this file holds every combination — operator × {col,col / col,const /
// const,col} × {int, float, mixed, str} — to a row-at-a-time reference that
// spells out the semantics they have always had: integer arithmetic wraps,
// mixed operands widen to float, a zero divisor fails at the first row that
// has one, and a comparison is decided by "less", "greater" or neither (so a
// NaN equals everything and is less than nothing).

var kernelSch = schema.MustNew(
	schema.Column{Name: "i1", Type: schema.Int64},
	schema.Column{Name: "i2", Type: schema.Int64},
	schema.Column{Name: "f1", Type: schema.Float64},
	schema.Column{Name: "f2", Type: schema.Float64},
	schema.Column{Name: "s1", Type: schema.Str},
	schema.Column{Name: "s2", Type: schema.Str},
)

func kernelChunk(t *testing.T, zeroDivisors bool) *chunk.BinaryChunk {
	t.Helper()
	nan, inf := math.NaN(), math.Inf(1)
	i1 := []int64{7, -7, 0, math.MinInt64, math.MaxInt64, 16, -16, 5, -1, 1 << 40}
	i2 := []int64{2, 3, -5, -1, math.MaxInt64, 16, 4, 5, math.MinInt64, -3}
	f1 := []float64{1.5, -2.25, 0, nan, inf, -inf, 1e300, -0.0, 3, nan}
	f2 := []float64{0.5, -2.25, 4, 1, inf, inf, 1e300, 2, nan, nan}
	s1 := []string{"a", "b", "", "abc", "héllo", "b", "Z", "10", "x", ""}
	s2 := []string{"b", "b", "", "ab", "héllp", "a", "z", "9", "", "y"}
	if zeroDivisors {
		i2[6], i2[8] = 0, 0
		f2[4], f2[7] = 0, math.Copysign(0, -1)
	}
	bc := chunk.NewBinary(kernelSch, 0, len(i1))
	for c, v := range []*chunk.Vector{
		{Type: schema.Int64, Ints: i1}, {Type: schema.Int64, Ints: i2},
		{Type: schema.Float64, Floats: f1}, {Type: schema.Float64, Floats: f2},
		{Type: schema.Str, Strs: s1}, {Type: schema.Str, Strs: s2},
	} {
		if err := bc.SetColumn(c, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// rowValue is the reference operand evaluation: one cell of a column, or the
// literal.
func rowValue(t *testing.T, e Expr, bc *chunk.BinaryChunk, r int) Value {
	t.Helper()
	switch e := e.(type) {
	case *Col:
		return valueAt(bc.Column(e.Idx), r)
	case *Const:
		return Value{Typ: e.Typ, Int: e.Int, Float: e.Float, Str: e.Str}
	}
	t.Fatalf("operand %s is neither a column nor a literal", e)
	return Value{}
}

func asFloat(v Value) float64 {
	if v.Typ == schema.Int64 {
		return float64(v.Int)
	}
	return v.Float
}

// refArith is one row of an arithmetic node; zero reports a zero divisor.
func refArith(op ArithOp, x, y Value) (v Value, zero bool) {
	if x.Typ == schema.Int64 && y.Typ == schema.Int64 {
		switch op {
		case OpAdd:
			return IntValue(x.Int + y.Int), false
		case OpSub:
			return IntValue(x.Int - y.Int), false
		case OpMul:
			return IntValue(x.Int * y.Int), false
		case OpDiv:
			if y.Int == 0 {
				return Value{}, true
			}
			return IntValue(x.Int / y.Int), false
		default:
			if y.Int == 0 {
				return Value{}, true
			}
			return IntValue(x.Int % y.Int), false
		}
	}
	a, b := asFloat(x), asFloat(y)
	switch op {
	case OpAdd:
		return FloatValue(a + b), false
	case OpSub:
		return FloatValue(a - b), false
	case OpMul:
		return FloatValue(a * b), false
	default:
		if b == 0 {
			return Value{}, true
		}
		return FloatValue(a / b), false
	}
}

// refCmp is one row of a comparison node.
func refCmp(op CmpOp, x, y Value) int64 {
	var sign int
	switch {
	case x.Typ == schema.Str:
		sign = strings.Compare(x.Str, y.Str)
	case x.Typ == schema.Int64 && y.Typ == schema.Int64:
		switch {
		case x.Int < y.Int:
			sign = -1
		case x.Int > y.Int:
			sign = 1
		}
	default:
		switch a, b := asFloat(x), asFloat(y); {
		case a < b:
			sign = -1
		case a > b:
			sign = 1
		}
	}
	if [...]bool{OpEq: sign == 0, OpNe: sign != 0, OpLt: sign < 0, OpLe: sign <= 0, OpGt: sign > 0, OpGe: sign >= 0}[op] {
		return 1
	}
	return 0
}

// operandPairs returns every (left, right) operand pair of the three shapes
// over the chunk's columns and a spread of literals, for each type pairing.
func operandPairs(t *testing.T, strs bool) [][2]Expr {
	t.Helper()
	col := func(name string) Expr {
		c, err := NewCol(kernelSch, name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var pairs [][2]Expr
	shapes := func(l, r Expr, consts ...Expr) {
		pairs = append(pairs, [2]Expr{l, r})
		for _, c := range consts {
			pairs = append(pairs, [2]Expr{l, c}, [2]Expr{c, r})
		}
	}
	if strs {
		shapes(col("s1"), col("s2"), ConstStr(""), ConstStr("b"), ConstStr("héllo"))
		return pairs
	}
	ints := []Expr{ConstInt(0), ConstInt(3), ConstInt(-3), ConstInt(16), ConstInt(1), ConstInt(-1), ConstInt(math.MinInt64)}
	floats := []Expr{ConstFloat(0), ConstFloat(2.5), ConstFloat(-0.5), ConstFloat(math.Copysign(0, -1))}
	shapes(col("i1"), col("i2"), ints...)
	shapes(col("f1"), col("f2"), floats...)
	shapes(col("i1"), col("f2"), append(ints[:4:4], floats...)...)
	shapes(col("f1"), col("i2"), append(ints[:4:4], floats...)...)
	pairs = append(pairs, [2]Expr{ConstInt(7), ConstInt(2)}, [2]Expr{ConstInt(7), ConstInt(0)}, [2]Expr{ConstFloat(1.5), ConstInt(2)})
	return pairs
}

func sameCell(a, b Value) bool {
	return a.Typ == b.Typ && a.Int == b.Int && a.Str == b.Str && math.Float64bits(a.Float) == math.Float64bits(b.Float)
}

func TestArithKernelsMatchRowReference(t *testing.T) {
	for _, zeros := range []bool{false, true} {
		bc := kernelChunk(t, zeros)
		for _, pair := range operandPairs(t, false) {
			for op := OpAdd; op <= OpMod; op++ {
				e, err := NewArith(op, pair[0], pair[1])
				if err != nil {
					continue // % over a float operand
				}
				wantErr := ""
				want := make([]Value, bc.Rows)
				for r := range want {
					v, zero := refArith(op, rowValue(t, pair[0], bc, r), rowValue(t, pair[1], bc, r))
					if zero {
						wantErr = fmt.Sprintf("engine: %s by zero at row %d", map[ArithOp]string{OpDiv: "division", OpMod: "modulo"}[op], r)
						break
					}
					want[r] = v
				}
				got, err := e.Eval(bc)
				if wantErr != "" {
					if err == nil || err.Error() != wantErr {
						t.Errorf("%s (zero divisors %v): error %v, want %s", e, zeros, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", e, err)
					continue
				}
				if got.Type != e.Type() || got.Len() != bc.Rows {
					t.Fatalf("%s: %v vector of %d, want %v of %d", e, got.Type, got.Len(), e.Type(), bc.Rows)
				}
				for r := range want {
					if g := valueAt(got, r); !sameCell(g, want[r]) {
						t.Errorf("%s row %d: %v, want %v", e, r, g, want[r])
					}
				}
				releaseScratch(e, got)
			}
		}
	}
}

// TestCmpKernelsMatchRowReference also runs the string shapes over columns
// decoded from dictionary pages, where a literal operand is compared once
// per dictionary entry.
func TestCmpKernelsMatchRowReference(t *testing.T) {
	plain := kernelChunk(t, false)
	coded := dictDecoded(t, []*chunk.BinaryChunk{plain})[0]
	for _, shape := range []struct {
		strs bool
		bc   *chunk.BinaryChunk
	}{{false, plain}, {true, plain}, {true, coded}} {
		bc := shape.bc
		for _, pair := range operandPairs(t, shape.strs) {
			for op := OpEq; op <= OpGe; op++ {
				e, err := NewCmp(op, pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Eval(bc)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				if got.Type != schema.Int64 || got.Len() != bc.Rows {
					t.Fatalf("%s: %v vector of %d", e, got.Type, got.Len())
				}
				for r := 0; r < bc.Rows; r++ {
					if want := refCmp(op, rowValue(t, pair[0], bc, r), rowValue(t, pair[1], bc, r)); got.Ints[r] != want {
						t.Errorf("%s row %d: %d, want %d", e, r, got.Ints[r], want)
					}
				}
				releaseScratch(e, got)
			}
		}
	}
}

// TestKernelsOverNoRows: a zero literal divisor fails at the first row there
// is, so over an empty chunk it does not fail at all.
func TestKernelsOverNoRows(t *testing.T) {
	bc := chunk.NewBinary(kernelSch, 0, 0)
	for c := 0; c < kernelSch.NumColumns(); c++ {
		if err := bc.SetColumn(c, &chunk.Vector{Type: kernelSch.Column(c).Type}); err != nil {
			t.Fatal(err)
		}
	}
	i1, _ := NewCol(kernelSch, "i1")
	for _, op := range []ArithOp{OpDiv, OpMod} {
		e, err := NewArith(op, i1, ConstInt(0))
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.Eval(bc)
		if err != nil || v.Len() != 0 {
			t.Errorf("%s over no rows: %v, %v", e, v, err)
		}
	}
}
