package engine

import (
	"fmt"
	"runtime"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// depthProbe is a predicate that records the deepest stack it is evaluated
// at: the chain operands of TestConnectiveChainFlat.
type depthProbe struct {
	Expr
	max *int
}

func (p depthProbe) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	var pcs [4096]uintptr
	*p.max = max(*p.max, runtime.Callers(0, pcs[:]))
	return p.Expr.Eval(bc)
}

// nestedSelect is the node-by-node connective evaluation the chain loop
// replaced: each AND or OR node evaluates its two sides, recursing into
// nested connectives, and an OR holds two selections of its own while it
// does. It is the oracle for the chain's selection on short chains.
func nestedSelect(e Expr, bc *chunk.BinaryChunk, cand, dst []int) ([]int, error) {
	l, ok := e.(*Logic)
	if !ok {
		return selectWhere(e, bc, cand, dst)
	}
	if l.Op == OpAnd {
		sel, err := nestedSelect(l.L, bc, cand, dst)
		if err != nil {
			return nil, err
		}
		return nestedSelect(l.R, bc, sel, sel)
	}
	lsel, err := nestedSelect(l.L, bc, cand, make([]int, bc.Rows))
	if err != nil {
		return nil, err
	}
	if l.Op == OpNot {
		return minus(dst, cand, bc.Rows, lsel), nil
	}
	rest := minus(make([]int, bc.Rows), cand, bc.Rows, lsel)
	if rest, err = nestedSelect(l.R, bc, rest, rest); err != nil {
		return nil, err
	}
	k := 0
	for len(lsel) > 0 || len(rest) > 0 {
		if len(rest) == 0 || len(lsel) > 0 && lsel[0] < rest[0] {
			dst[k], lsel = lsel[0], lsel[1:]
		} else {
			dst[k], rest = rest[0], rest[1:]
		}
		k++
	}
	return dst[:k], nil
}

// TestConnectiveChainFlat: an AND or OR chain is one n-ary connective. A
// chain of 100,000 operands — what a 1 MiB `c0 = 40 OR c0 = 41 OR …`
// parses to — selects what it must, evaluates every operand at the stack
// depth a two-operand chain's operands are evaluated at, and makes a number
// of allocations that does not grow with its length: nested evaluation took
// two pooled selections per OR level. On short chains of either shape, mixed
// with NOT and the other connective, the selection is the nested
// evaluation's.
func TestConnectiveChainFlat(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64})
	bc := chunk.NewBinary(sch, 0, 64)
	c0 := &chunk.Vector{Type: schema.Int64, Ints: make([]int64, 64)}
	for i := range c0.Ints {
		c0.Ints[i] = int64(i)
	}
	if err := bc.SetColumn(0, c0); err != nil {
		t.Fatal(err)
	}
	col := &Col{Idx: 0, Name: "c0", Typ: schema.Int64}
	logic := func(op LogicOp, l, r Expr) Expr {
		e, err := NewLogic(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// chain builds a left- or right-deep chain of n operands: under OR,
	// c0 = k selects rows 40-63; under AND, c0 <> k keeps rows 0-39.
	chain := func(op LogicOp, n int, right bool, depth *int) Expr {
		var e Expr
		for i := 0; i < n; i++ {
			cmp := OpEq
			if op == OpAnd {
				cmp = OpNe
			}
			c, err := NewCmp(cmp, col, ConstInt(int64(40+i%24)))
			if err != nil {
				t.Fatal(err)
			}
			var term Expr = c
			if depth != nil {
				term = depthProbe{Expr: c, max: depth}
			}
			switch {
			case e == nil:
				e = term
			case right:
				e = logic(op, term, e)
			default:
				e = logic(op, e, term)
			}
		}
		return e
	}
	even := []int{}
	for r := 0; r < bc.Rows; r += 2 {
		even = append(even, r)
	}
	selectOver := func(e Expr, cand []int, eval func(Expr, *chunk.BinaryChunk, []int, []int) ([]int, error)) []int {
		t.Helper()
		dst := make([]int, bc.Rows)
		if cand != nil {
			dst = append([]int(nil), cand...)
		}
		sel, err := eval(e, bc, cand, dst)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		return sel
	}

	for _, op := range []LogicOp{OpOr, OpAnd} {
		for _, right := range []bool{false, true} {
			name := fmt.Sprintf("%v/right=%v", op, right)
			longChain := chain(op, 100_000, right, nil)
			// Nested evaluation would take two pooled selections an OR level
			// from a cold pool: 200,000 allocations. The chain gathers its
			// operands in a few growing slices, then evaluates without any.
			for i, cand := range [][]int{nil, even, nil} {
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got := selectOver(longChain, cand, selectWhere)
				runtime.ReadMemStats(&after)
				var want []int
				for r := 0; r < bc.Rows; r++ {
					if (cand == nil || r%2 == 0) && (r >= 40) == (op == OpOr) {
						want = append(want, r)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s over %v: selected %v, want %v", name, cand, got, want)
				}
				if n, bound := after.Mallocs-before.Mallocs, map[bool]uint64{true: 100, false: 20}[i == 0]; n > bound {
					t.Errorf("%s: evaluation %d made %d allocations, want at most %d", name, i, n, bound)
				}
			}
			var short, long int
			selectOver(chain(op, 2, right, &short), nil, selectWhere)
			selectOver(chain(op, 100_000, right, &long), nil, selectWhere)
			if long > short {
				t.Errorf("%s: operands evaluated %d frames deep, %d in a two-operand chain", name, long, short)
			}
		}
	}

	p := func(k int64) Expr {
		c, err := NewCmp(OpLt, col, ConstInt(k))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ge := func(k int64) Expr { return logic(OpNot, p(k), nil) }
	for _, e := range []Expr{
		chain(OpOr, 7, false, nil),
		chain(OpAnd, 7, true, nil),
		logic(OpOr, logic(OpOr, p(3), logic(OpAnd, ge(10), p(20))), logic(OpOr, ge(60), p(5))),
		logic(OpAnd, logic(OpAnd, ge(2), logic(OpOr, p(10), ge(30))), logic(OpAnd, p(50), logic(OpNot, logic(OpOr, p(4), ge(45)), nil))),
		logic(OpOr, logic(OpAnd, p(0), ge(64)), logic(OpOr, p(0), ge(64))),
	} {
		for _, cand := range [][]int{nil, even} {
			got, want := selectOver(e, cand, selectWhere), selectOver(e, cand, nestedSelect)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s over %v: the chain selected %v, nested evaluation %v", e, cand, got, want)
			}
		}
		checkSelection(t, "short", e, bc)
	}
}
