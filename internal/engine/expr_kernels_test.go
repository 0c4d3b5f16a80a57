package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

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

// narrowKernelChunk is kernelChunk with i1 and i2 drawn from int32's range —
// its extremes among them, and MinInt32 / -1 at row 3 — and read back from
// its pages, so both integer columns are narrow.
func narrowKernelChunk(t *testing.T, zeroDivisors bool) *chunk.BinaryChunk {
	t.Helper()
	bc := kernelChunk(t, zeroDivisors)
	copy(bc.Column(0).Ints, []int64{7, -7, 0, math.MinInt32, math.MaxInt32, 16, -16, 5, -1, -math.MaxInt32})
	copy(bc.Column(1).Ints, []int64{2, 3, -5, -1, math.MaxInt32, 16, 4, 5, math.MinInt32, -3})
	if zeroDivisors {
		bc.Column(1).Ints[6], bc.Column(1).Ints[8] = 0, 0
	}
	out := pageDecoded(t, []*chunk.BinaryChunk{bc})[0]
	for c := 0; c < 2; c++ {
		if out.Column(c).Int32 == nil {
			t.Fatalf("column %d did not decode narrow", c)
		}
	}
	return out
}

// cell is row r of v as a value, read through the vector's own accessor —
// IntAt for an Int64 vector, narrow or wide — so that the references do not
// lean on valueAt, which the engine's row paths use.
func cell(v *chunk.Vector, r int) Value {
	switch v.Type {
	case schema.Int64:
		return IntValue(v.IntAt(r))
	case schema.Float64:
		return FloatValue(v.Floats[r])
	}
	return StrValue(v.Strs[r])
}

// rowValue is the reference operand evaluation: one cell of a column, or the
// literal.
func rowValue(t *testing.T, e Expr, bc *chunk.BinaryChunk, r int) Value {
	t.Helper()
	switch e := e.(type) {
	case *Col:
		return cell(bc.Column(e.Idx), r)
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
	// The last five are int32's extremes and the first values outside it,
	// which a narrow column meets without truncating them.
	ints := []Expr{ConstInt(0), ConstInt(3), ConstInt(-3), ConstInt(16), ConstInt(1), ConstInt(-1), ConstInt(math.MinInt64),
		ConstInt(math.MaxInt32), ConstInt(math.MinInt32), ConstInt(1 << 31), ConstInt(-1<<31 - 1), ConstInt(math.MaxInt64)}
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
		for _, bc := range []*chunk.BinaryChunk{kernelChunk(t, zeros), narrowKernelChunk(t, zeros)} {
			testArithKernels(t, bc, zeros)
		}
	}
}

// testArithKernels is TestArithKernelsMatchRowReference over one chunk.
func testArithKernels(t *testing.T, bc *chunk.BinaryChunk, zeros bool) {
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

// TestCmpKernelsMatchRowReference also runs the string shapes over columns
// decoded from dictionary pages, where a literal operand is compared once
// per dictionary entry, and the numeric ones over narrow integer columns.
func TestCmpKernelsMatchRowReference(t *testing.T) {
	plain := kernelChunk(t, false)
	coded := dictDecoded(t, []*chunk.BinaryChunk{plain})[0]
	for _, shape := range []struct {
		strs bool
		bc   *chunk.BinaryChunk
	}{{false, plain}, {false, narrowKernelChunk(t, false)}, {true, plain}, {true, coded}} {
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

// refColumn is the reference evaluator for a whole tree, with the semantics
// node-by-node evaluation has always had: a node's operands are evaluated
// over every row, left one first, and the node then row by row, so the error
// of a tree is that of the first node, in that order, with a zero divisor,
// at its first such row.
func refColumn(e Expr, bc *chunk.BinaryChunk) ([]Value, error) {
	out := make([]Value, bc.Rows)
	switch e := e.(type) {
	case *Col:
		for r := range out {
			out[r] = cell(bc.Column(e.Idx), r)
		}
	case *Const:
		for r := range out {
			out[r] = Value{Typ: e.Typ, Int: e.Int, Float: e.Float, Str: e.Str}
		}
	case *Arith:
		l, err := refColumn(e.L, bc)
		if err != nil {
			return nil, err
		}
		rv, err := refColumn(e.R, bc)
		if err != nil {
			return nil, err
		}
		for r := range out {
			v, zero := refArith(e.Op, l[r], rv[r])
			if zero {
				return nil, fmt.Errorf("engine: %s by zero at row %d", map[ArithOp]string{OpDiv: "division", OpMod: "modulo"}[e.Op], r)
			}
			out[r] = v
		}
	case *Cmp:
		l, err := refColumn(e.L, bc)
		if err != nil {
			return nil, err
		}
		rv, err := refColumn(e.R, bc)
		if err != nil {
			return nil, err
		}
		for r := range out {
			out[r] = IntValue(refCmp(e.Op, l[r], rv[r]))
		}
	case *Logic:
		l, err := refColumn(e.L, bc)
		if err != nil {
			return nil, err
		}
		rv := l
		if e.Op != OpNot {
			if rv, err = refColumn(e.R, bc); err != nil {
				return nil, err
			}
		}
		for r := range out {
			a, b := l[r].Int != 0, rv[r].Int != 0
			out[r] = IntValue(int64(b2i([...]bool{OpAnd: a && b, OpOr: a || b, OpNot: !a}[e.Op])))
		}
	case *Like:
		v, err := refColumn(e.E, bc)
		if err != nil {
			return nil, err
		}
		for r := range out {
			out[r] = IntValue(int64(b2i(likeMatch(v[r].Str, e.m.pattern) != e.Negate)))
		}
	default:
		return nil, fmt.Errorf("refColumn: unknown node %T", e)
	}
	return out, nil
}

// refSelection is the rows of cand (every row when nil) at which the
// reference value of e is non-zero.
func refSelection(vals []Value, cand []int) []int {
	sel := []int{}
	for r, v := range vals {
		if v.Int != 0 && (cand == nil || containsRow(cand, r)) {
			sel = append(sel, r)
		}
	}
	return sel
}

func containsRow(rows []int, r int) bool {
	for _, x := range rows {
		if x == r {
			return true
		}
	}
	return false
}

func mustArith(t testing.TB, op ArithOp, l, r Expr) Expr {
	t.Helper()
	e, err := NewArith(op, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// addChain joins leaves with + in one of three shapes: left-deep
// (((a+b)+c)+d), right-deep (a+(b+(c+d))) or balanced ((a+b)+(c+d)).
func addChain(t testing.TB, shape string, leaves []Expr) Expr {
	t.Helper()
	switch {
	case len(leaves) == 1:
		return leaves[0]
	case shape == "left":
		return mustArith(t, OpAdd, addChain(t, shape, leaves[:len(leaves)-1]), leaves[len(leaves)-1])
	case shape == "right":
		return mustArith(t, OpAdd, leaves[0], addChain(t, shape, leaves[1:]))
	}
	h := len(leaves) / 2
	return mustArith(t, OpAdd, addChain(t, shape, leaves[:h]), addChain(t, shape, leaves[h:]))
}

// TestIntSumChainsMatchRowReference: a + tree of 3 to 17 leaves of any shape
// — columns, literals at the wrap-around extremes, non-+ subtrees, a
// divisor that is zero at some rows — equals the node-by-node reference cell
// for cell and fails with its error; with one float leaf the tree is Float64
// and equals it bit for bit.
func TestIntSumChainsMatchRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	i1, i2, f1 := mustCol(t, "i1"), mustCol(t, "i2"), mustCol(t, "f1")
	pool := []Expr{
		i1, i2, i1, i2,
		ConstInt(math.MinInt64), ConstInt(math.MaxInt64), ConstInt(7), ConstInt(-1),
		mustArith(t, OpMul, i1, ConstInt(3)),
		mustArith(t, OpMod, i2, ConstInt(16)),
		mustArith(t, OpSub, i1, i2),
	}
	div := mustArith(t, OpDiv, i1, i2) // zero divisors at rows 6 and 8 of the second chunk
	for _, zeros := range []bool{false, true} {
		for _, bc := range []*chunk.BinaryChunk{kernelChunk(t, zeros), narrowKernelChunk(t, zeros)} {
			testSumChains(t, rng, bc, pool, div, f1)
		}
	}
}

// testSumChains is TestIntSumChainsMatchRowReference over one chunk.
func testSumChains(t *testing.T, rng *rand.Rand, bc *chunk.BinaryChunk, pool []Expr, div, f1 Expr) {
	for n := 3; n <= 17; n++ {
		for _, shape := range []string{"left", "right", "balanced"} {
			for variant := 0; variant < 4; variant++ {
				leaves := make([]Expr, n)
				for i := range leaves {
					leaves[i] = pool[rng.Intn(len(pool))]
				}
				switch variant {
				case 1:
					leaves[rng.Intn(n)] = div
				case 2:
					leaves[rng.Intn(n)] = f1
				case 3:
					leaves[0], leaves[n-1] = ConstInt(math.MaxInt64), ConstInt(math.MaxInt64)
				}
				e := addChain(t, shape, leaves)
				if a := e.(*Arith); (a.sum != nil) != (variant != 2) {
					t.Fatalf("%s: gathered as a sum: %v", e, a.sum != nil)
				}
				want, wantErr := refColumn(e, bc)
				got, err := e.Eval(bc)
				if wantErr != nil || err != nil {
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s: error %v, want %v", e, err, wantErr)
					}
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

// TestLongSumChainLinear: a + chain as long as a 1 MiB request body allows,
// 300k terms, parses, names its column and sums a chunk in memory and time
// linear in its length, left-deep as the parser builds it and right-deep.
// Each leaf is held once, by the node evaluated, and neither a node's type
// nor its rendering walks the tree below it. A quadratic cost is hundreds of
// GB or minutes at that length, so a short chain is held to the same
// per-term ceiling first.
func TestLongSumChainLinear(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64})
	bc := chunk.NewBinary(sch, 0, 64)
	c0 := &chunk.Vector{Type: schema.Int64, Ints: make([]int64, 64)}
	var rowSum int64
	for i := range c0.Ints {
		c0.Ints[i] = int64(i)
		rowSum += int64(i)
	}
	if err := bc.SetColumn(0, c0); err != nil {
		t.Fatal(err)
	}
	col := &Col{Idx: 0, Name: "c0", Typ: schema.Int64}
	for _, terms := range []int{2_000, 300_000} {
		for _, shape := range []string{"left", "right"} {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			var q *Query
			if shape == "left" {
				var err error
				if q, err = ParseSQL("SELECT SUM("+strings.Repeat("c0+", terms-1)+"c0) FROM t", sch); err != nil {
					t.Fatal(err)
				}
			} else {
				var e Expr = col
				for i := 1; i < terms; i++ {
					e = mustArith(t, OpAdd, col, e)
				}
				q = &Query{Items: []SelectItem{{Agg: AggSum, Expr: e}}, From: "t"}
			}
			if name := q.ColumnNames()[0]; len(name) != len("SUM()")+terms*len("c0")+(terms-1)*len("( + )") {
				t.Fatalf("%s %d: column name of %d bytes", shape, terms, len(name))
			}
			p, err := NewPartial(q, sch)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := p.Consume(bc); err != nil {
					t.Fatal(err)
				}
			}
			res := mustResult(t, p)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if got, want := res.Rows[0][0].Int, 2*int64(terms)*rowSum; got != want {
				t.Errorf("%s %d: sum %d, want %d", shape, terms, got, want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(terms)<<11 {
				t.Fatalf("%s %d: %d bytes allocated a term, want at most 2 KB", shape, terms, alloc/uint64(terms))
			}
			if elapsed > time.Minute {
				t.Fatalf("%s %d: %v", shape, terms, elapsed)
			}
			root := q.Items[0].Expr.(*Arith)
			inner, ok := root.L.(*Arith)
			if !ok {
				inner = root.R.(*Arith)
			}
			if len(inner.sum.leaves) != 0 {
				t.Errorf("%s %d: a nested + node holds %d leaves", shape, terms, len(inner.sum.leaves))
			}
		}
	}
}

func mustCol(t testing.TB, name string) *Col {
	t.Helper()
	c, err := NewCol(kernelSch, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// emptyKernelChunk is kernelSch over no rows.
func emptyKernelChunk(t *testing.T) *chunk.BinaryChunk {
	t.Helper()
	bc := chunk.NewBinary(kernelSch, 0, 0)
	for c := 0; c < kernelSch.NumColumns(); c++ {
		if err := bc.SetColumn(c, &chunk.Vector{Type: kernelSch.Column(c).Type}); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// checkSelection holds e as a WHERE — over every row and refining a
// candidate list in place — and as a 0/1 value to the reference.
func checkSelection(t *testing.T, name string, e Expr, bc *chunk.BinaryChunk) {
	t.Helper()
	vals, err := refColumn(e, bc)
	if err != nil {
		t.Fatalf("%s %s: reference: %v", name, e, err)
	}
	cand := []int{}
	for r := 0; r < bc.Rows; r += 2 {
		cand = append(cand, r)
	}
	for _, c := range [][]int{nil, cand} {
		dst := make([]int, bc.Rows)
		if c != nil {
			dst = append([]int(nil), c...)
		}
		got, err := selectWhere(e, bc, c, dst)
		if err != nil {
			t.Fatalf("%s %s: %v", name, e, err)
		}
		if want := refSelection(vals, c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s %s over %v: selected %v, want %v", name, e, c, got, want)
		}
	}
	v, err := e.Eval(bc)
	if err != nil {
		t.Fatalf("%s %s as a value: %v", name, e, err)
	}
	for r, want := range vals {
		if v.Ints[r] != want.Int {
			t.Errorf("%s %s as a value, row %d: %d, want %d", name, e, r, v.Ints[r], want.Int)
		}
	}
	releaseScratch(e, v)
}

// TestSelectionMatchesRowReference holds every comparison shape, plain and
// over dictionary-decoded strings, and AND/OR/NOT nestings of them to the
// reference as selections, on chunks where some, all and no rows pass and on
// an empty chunk.
func TestSelectionMatchesRowReference(t *testing.T) {
	plain := kernelChunk(t, false)
	chunks := map[string]*chunk.BinaryChunk{
		"plain": plain, "dictionary": dictDecoded(t, []*chunk.BinaryChunk{plain})[0], "empty": emptyKernelChunk(t),
		"narrow": narrowKernelChunk(t, false),
	}
	var preds []Expr
	for _, strs := range []bool{false, true} {
		for _, pair := range operandPairs(t, strs) {
			for op := OpEq; op <= OpGe; op++ {
				e, err := NewCmp(op, pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, e)
			}
		}
	}
	all, _ := NewCmp(OpEq, mustCol(t, "i1"), mustCol(t, "i1"))
	none, _ := NewCmp(OpNe, mustCol(t, "s1"), mustCol(t, "s1"))
	like, _ := NewLike(mustCol(t, "s2"), "%b%", false)
	nonBool := mustArith(t, OpSub, mustCol(t, "i1"), ConstInt(7))
	preds = append(preds, all, none, like, nonBool)
	logic := func(op LogicOp, l, r Expr) Expr {
		e, err := NewLogic(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rng := rand.New(rand.NewSource(31))
	pick := func() Expr { return preds[rng.Intn(len(preds))] }
	var nested []Expr
	for i := 0; i < 200; i++ {
		p, q, r := pick(), pick(), pick()
		nested = append(nested,
			logic(OpAnd, p, q), logic(OpOr, p, q), logic(OpNot, p, nil),
			logic(OpAnd, p, logic(OpOr, q, logic(OpNot, r, nil))),
			logic(OpOr, logic(OpAnd, p, q), logic(OpNot, logic(OpOr, r, p), nil)),
		)
	}
	nested = append(nested, logic(OpAnd, all, none), logic(OpOr, none, all), logic(OpNot, all, nil), logic(OpAnd, none, like))
	for name, bc := range chunks {
		for _, e := range append(preds, nested...) {
			checkSelection(t, name, e, bc)
		}
	}
}

// TestZeroDivisorUnderConnectives: a zero divisor inside AND or OR fails
// with the error node-by-node evaluation gives — the same row, the same
// message — whatever the other side selects, as a WHERE and as a value.
func TestZeroDivisorUnderConnectives(t *testing.T) {
	bc := kernelChunk(t, true) // i2 is zero at rows 6 and 8
	for _, c := range []struct{ where, want string }{
		{"i1 < 0 AND i1 / i2 > 0", "engine: division by zero at row 6"},
		{"i1 <> i1 AND i1 % i2 = 0", "engine: modulo by zero at row 6"},
		{"i1 = i1 OR i1 / i2 = 0", "engine: division by zero at row 6"},
		{"NOT (i1 % i2 = 0) OR i1 > 0", "engine: modulo by zero at row 6"},
		{"i1 / i2 > 0 AND i1 % 0 = 0", "engine: division by zero at row 6"},
		{"i1 > 0 AND (i2 < 0 OR i1 % (i2 - i2) = 1)", "engine: modulo by zero at row 0"},
		{"i1 + i2 / (i1 - i1) > 0 OR i1 < 0", "engine: division by zero at row 0"},
		{"s1 LIKE 'a%' AND f1 / f2 > 0", "engine: division by zero at row 4"},
	} {
		q, err := ParseSQL("SELECT COUNT(*) FROM t WHERE "+c.where, kernelSch)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		p, err := NewPartial(q, kernelSch)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Consume(bc); fmt.Sprint(err) != c.want {
			t.Errorf("WHERE %s: %v, want %s", c.where, err, c.want)
		}
		if _, err := q.Where.Eval(bc); fmt.Sprint(err) != c.want {
			t.Errorf("%s as a value: %v, want %s", c.where, err, c.want)
		}
		if _, err := refColumn(q.Where, bc); fmt.Sprint(err) != c.want {
			t.Errorf("%s: the reference fails with %v, want %s", c.where, err, c.want)
		}
	}
}
