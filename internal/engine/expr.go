// Package engine implements the columnar query-execution layer SCANRAW
// feeds: vectorized expression evaluation over binary chunks, filtering,
// projection, aggregation (SUM/COUNT/MIN/MAX/AVG) with hash group-by, and a
// SQL-subset parser for the query shapes the paper evaluates
// (SELECT SUM(c1+...+cK) FROM file, and group-by aggregates with pattern
// predicates for the SAM workload).
//
// The engine stands in for the DataPath execution engine the paper
// integrates with (§5, "Implementation"): cheap enough that SCANRAW is the
// measured component, but a real consumer of binary chunks with predicate
// evaluation and aggregation.
package engine

import (
	"fmt"
	"strings"
	"sync"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Expr is a bound (column ordinals resolved) vectorized expression.
type Expr interface {
	// Type returns the result type of the expression.
	Type() schema.Type
	// Eval evaluates the expression over every row of the chunk. Boolean
	// results are Int64 vectors of 0/1. Results of every node except bare
	// column references are pooled scratch vectors: the caller owns the
	// returned vector and hands it back via releaseScratch once its values
	// have been consumed.
	Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error)
	// Columns appends the schema ordinals the expression reads to dst.
	Columns(dst []int) []int
	// String renders the expression in SQL-ish syntax.
	String() string
}

// releaseScratch returns an Eval result to the vector pool. Bare column
// references alias the chunk's own vectors (cacheable, shared across
// queries) and are left alone.
func releaseScratch(e Expr, v *chunk.Vector) {
	if v == nil {
		return
	}
	if _, isCol := e.(*Col); isCol {
		//lint:ignore poolpair Col results alias cached chunk vectors; recycling here would corrupt shared chunks
		return
	}
	chunk.PutVector(v)
}

// Col references a table column by ordinal.
type Col struct {
	Idx  int
	Name string
	Typ  schema.Type
}

// NewCol builds a bound column reference for the named column of sch.
func NewCol(sch *schema.Schema, name string) (*Col, error) {
	i, ok := sch.Index(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown column %q", name)
	}
	return &Col{Idx: i, Name: name, Typ: sch.Column(i).Type}, nil
}

// Type implements Expr.
func (c *Col) Type() schema.Type { return c.Typ }

// Eval implements Expr.
func (c *Col) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	v := bc.Column(c.Idx)
	if v == nil {
		return nil, fmt.Errorf("engine: column %q (ordinal %d) absent from chunk %d", c.Name, c.Idx, bc.ID)
	}
	return v, nil
}

// Columns implements Expr.
func (c *Col) Columns(dst []int) []int { return append(dst, c.Idx) }

// String implements Expr.
func (c *Col) String() string { return c.Name }

// Const is a literal value.
type Const struct {
	Typ   schema.Type
	Int   int64
	Float float64
	Str   string
}

// ConstInt returns an integer literal.
func ConstInt(x int64) *Const { return &Const{Typ: schema.Int64, Int: x} }

// ConstFloat returns a float literal.
func ConstFloat(x float64) *Const { return &Const{Typ: schema.Float64, Float: x} }

// ConstStr returns a string literal.
func ConstStr(s string) *Const { return &Const{Typ: schema.Str, Str: s} }

// Type implements Expr.
func (c *Const) Type() schema.Type { return c.Typ }

// float returns a numeric literal widened to float64.
func (c *Const) float() float64 {
	if c.Typ == schema.Int64 {
		return float64(c.Int)
	}
	return c.Float
}

// Eval implements Expr.
func (c *Const) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	v := chunk.GetVector(c.Typ, bc.Rows)
	switch c.Typ {
	case schema.Int64:
		for i := range v.Ints {
			v.Ints[i] = c.Int
		}
	case schema.Float64:
		for i := range v.Floats {
			v.Floats[i] = c.Float
		}
	case schema.Str:
		for i := range v.Strs {
			v.Strs[i] = c.Str
		}
	}
	return v, nil
}

// Columns implements Expr.
func (c *Const) Columns(dst []int) []int { return dst }

// String implements Expr.
func (c *Const) String() string {
	switch c.Typ {
	case schema.Int64:
		return fmt.Sprintf("%d", c.Int)
	case schema.Float64:
		return fmt.Sprintf("%g", c.Float)
	default:
		return fmt.Sprintf("'%s'", strings.ReplaceAll(c.Str, "'", "''"))
	}
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith is a binary arithmetic expression over numeric operands. Mixed
// int/float operands promote to float.
type Arith struct {
	Op   ArithOp
	L, R Expr

	// typ is the node's type, fixed by NewArith: asking a deep tree for its
	// type must not walk it.
	typ schema.Type
	// sum is set by NewArith when the node is an integer +; its leaves are
	// gathered by the first Eval, so only the node a tree is evaluated
	// from holds them.
	sum *intSum
}

// NewArith builds an arithmetic expression, validating operand types.
func NewArith(op ArithOp, l, r Expr) (*Arith, error) {
	lt, rt := l.Type(), r.Type()
	if lt == schema.Str || rt == schema.Str {
		return nil, fmt.Errorf("engine: arithmetic %s over string operand", op)
	}
	if op == OpMod && (lt != schema.Int64 || rt != schema.Int64) {
		return nil, fmt.Errorf("engine: %% requires integer operands")
	}
	a := &Arith{Op: op, L: l, R: r, typ: schema.Int64}
	if lt == schema.Float64 || rt == schema.Float64 {
		a.typ = schema.Float64
	}
	if op == OpAdd && a.typ == schema.Int64 {
		a.sum = new(intSum)
	}
	return a, nil
}

// Type implements Expr.
func (a *Arith) Type() schema.Type { return a.typ }

// Eval implements Expr. An integer + tree is one n-ary sum (intSum). Any
// other node switches on its operator once per chunk, not per row, and takes
// a literal right operand (after moving a commutative operator's left
// literal over) as a scalar instead of materialising it bc.Rows times.
func (a *Arith) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	if a.sum != nil {
		a.sum.once.Do(func() { a.sum.gather(a) })
		return a.sum.eval(bc)
	}
	le, re := a.L, a.R
	if _, ok := le.(*Const); ok && (a.Op == OpAdd || a.Op == OpMul) {
		le, re = re, le
	}
	l, err := le.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(le, l)
	rc, r, err := rightOperand(re, bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(re, r)
	n := bc.Rows
	var out *chunk.Vector
	var zeroAt int
	if a.Type() == schema.Int64 {
		out = chunk.GetVector(schema.Int64, n)
		if rc != nil {
			zeroAt = arithScalar(a.Op, out.Ints, l.Ints, rc.Int)
		} else {
			zeroAt = arithVectors(a.Op, out.Ints, l.Ints, r.Ints)
		}
	} else {
		lf, lscratch := asFloats(l)
		defer chunk.PutVector(lscratch)
		out = chunk.GetVector(schema.Float64, n)
		if rc != nil {
			zeroAt = arithScalar(a.Op, out.Floats, lf, rc.float())
		} else {
			rf, rscratch := asFloats(r)
			defer chunk.PutVector(rscratch)
			zeroAt = arithVectors(a.Op, out.Floats, lf, rf)
		}
	}
	if zeroAt >= 0 {
		chunk.PutVector(out)
		what := "division"
		if a.Op == OpMod {
			what = "modulo"
		}
		return nil, fmt.Errorf("engine: %s by zero at row %d", what, zeroAt)
	}
	return out, nil
}

// intSum is an integer + tree of any shape as one n-ary sum: its literals
// folded into k, and every other leaf, left to right — a column, which
// aliases the chunk's vector, or a subtree such as c1 % 16, which evaluates
// as a node of its own. Integer addition wraps, so every association of the
// leaves gives the tree's answer. A tree with a float leaf is Float64 and is
// not gathered: its rounding depends on the left-to-right order the per-node
// path keeps.
type intSum struct {
	once   sync.Once
	k      int64
	leaves []Expr
}

// gather collects the leaves of the + tree a heads in one walk, with a
// stack of its own so that a long chain is no deep recursion. The nested +
// nodes gather nothing: each leaf is held once, by the node evaluated.
func (s *intSum) gather(a *Arith) {
	todo := []Expr{a.R, a.L}
	for len(todo) > 0 {
		e := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		switch e := e.(type) {
		case *Const:
			s.k += e.Int
			continue
		case *Arith:
			if e.sum != nil {
				todo = append(todo, e.R, e.L)
				continue
			}
		}
		s.leaves = append(s.leaves, e)
	}
}

// eval fills a vector taken without the clear, since sumInto writes every
// row, and gives it back if a leaf fails.
func (s *intSum) eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	out := chunk.GetVectorUncleared(schema.Int64, bc.Rows)
	if err := s.sumInto(out.Ints, bc); err != nil {
		chunk.PutVector(out)
		return nil, err
	}
	return out, nil
}

// sumInto sets o to the sum. It evaluates each leaf once, in tree order, so
// the first leaf to fail fails the sum with the error node-by-node
// evaluation would give. The first pass sets o from the one to four leaves
// that leave a multiple of four, and each later pass adds four more: a pass
// over a chunk costs about the same for one input as for four, so the sum of
// 16 leaves is four passes, not one per leaf. At most four leaf results are
// held at a time, however long the chain.
func (s *intSum) sumInto(o []int64, bc *chunk.BinaryChunk) error {
	n := len(s.leaves)
	if n == 0 {
		for i := range o {
			o[i] = s.k
		}
		return nil
	}
	var buf [4]*chunk.Vector
	for j, g := 0, n-(n-1)/4*4; j < n; j, g = j+g, 4 {
		leaves, x := s.leaves[j:j+g], buf[:g]
		for i, e := range leaves {
			v, err := e.Eval(bc)
			if err != nil {
				releaseLeaves(leaves, x[:i])
				return err
			}
			x[i] = v
		}
		switch {
		case j > 0:
			add4(o, x[0].Ints, x[1].Ints, x[2].Ints, x[3].Ints)
		case g == 1:
			copy(o, x[0].Ints)
		case g == 2:
			set2(o, x[0].Ints, x[1].Ints)
		case g == 3:
			set3(o, x[0].Ints, x[1].Ints, x[2].Ints)
		default:
			set4(o, x[0].Ints, x[1].Ints, x[2].Ints, x[3].Ints)
		}
		releaseLeaves(leaves, x)
	}
	if s.k != 0 {
		for i := range o {
			o[i] += s.k
		}
	}
	return nil
}

// releaseLeaves releases the leaf results vecs[i] of leaves[i].
func releaseLeaves(leaves []Expr, vecs []*chunk.Vector) {
	for i, v := range vecs {
		releaseScratch(leaves[i], v)
	}
}

func set2(o, x0, x1 []int64) {
	x0, x1 = x0[:len(o)], x1[:len(o)]
	for i := range o {
		o[i] = x0[i] + x1[i]
	}
}

func set3(o, x0, x1, x2 []int64) {
	x0, x1, x2 = x0[:len(o)], x1[:len(o)], x2[:len(o)]
	for i := range o {
		o[i] = x0[i] + x1[i] + x2[i]
	}
}

func set4(o, x0, x1, x2, x3 []int64) {
	x0, x1, x2, x3 = x0[:len(o)], x1[:len(o)], x2[:len(o)], x3[:len(o)]
	for i := range o {
		o[i] = x0[i] + x1[i] + x2[i] + x3[i]
	}
}

func add4(o, x0, x1, x2, x3 []int64) {
	x0, x1, x2, x3 = x0[:len(o)], x1[:len(o)], x2[:len(o)], x3[:len(o)]
	for i := range o {
		o[i] += x0[i] + x1[i] + x2[i] + x3[i]
	}
}

// rightOperand evaluates the right side of a binary node: a literal comes
// back as itself, for the kernel to take as a scalar, anything else as a
// vector for the caller to release.
func rightOperand(e Expr, bc *chunk.BinaryChunk) (*Const, *chunk.Vector, error) {
	if c, ok := e.(*Const); ok {
		return c, nil, nil
	}
	v, err := e.Eval(bc)
	return nil, v, err
}

// arithVectors computes out[i] = l[i] op r[i]. It returns the first row
// whose divisor is zero, or -1; NewArith keeps OpMod to integers.
func arithVectors[T int64 | float64](op ArithOp, out, l, r []T) int {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case OpSub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case OpMul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case OpDiv:
		for i := range out {
			if r[i] == 0 {
				return i
			}
			out[i] = l[i] / r[i]
		}
	case OpMod:
		li, ri, oi := any(l).([]int64), any(r).([]int64), any(out).([]int64)
		for i := range oi {
			if ri[i] == 0 {
				return i
			}
			oi[i] = li[i] % ri[i]
		}
	}
	return -1
}

// arithScalar computes out[i] = l[i] op s; like arithVectors, with a zero
// divisor failing at the first row there is.
func arithScalar[T int64 | float64](op ArithOp, out, l []T, s T) int {
	l = l[:len(out)]
	if s == 0 && (op == OpDiv || op == OpMod) {
		if len(out) == 0 {
			return -1
		}
		return 0
	}
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = l[i] + s
		}
	case OpSub:
		for i := range out {
			out[i] = l[i] - s
		}
	case OpMul:
		for i := range out {
			out[i] = l[i] * s
		}
	case OpDiv:
		for i := range out {
			out[i] = l[i] / s
		}
	case OpMod:
		li, oi, m := any(l).([]int64), any(out).([]int64), any(s).(int64)
		if m > 0 && m&(m-1) == 0 {
			// A power of two: mask, then give a negative dividend's
			// remainder its sign back. A 64-bit divide costs tens of
			// cycles a row; this costs one or two.
			for i, x := range li {
				r := x & (m - 1)
				if x < 0 && r != 0 {
					r -= m
				}
				oi[i] = r
			}
			break
		}
		for i := range oi {
			oi[i] = li[i] % m
		}
	}
	return -1
}

// asFloats widens an Int64 vector to float64. When a conversion is needed
// the backing storage comes from the pool; the second result is the scratch
// vector the caller must release (nil when v was already float-typed).
func asFloats(v *chunk.Vector) ([]float64, *chunk.Vector) {
	if v.Type == schema.Float64 {
		return v.Floats, nil
	}
	s := chunk.GetVector(schema.Float64, len(v.Ints))
	for i, x := range v.Ints {
		s.Floats[i] = float64(x)
	}
	return s.Floats, s
}

// Columns implements Expr.
func (a *Arith) Columns(dst []int) []int { return a.R.Columns(a.L.Columns(dst)) }

// String implements Expr. Nested arithmetic is written into the one builder,
// not rendered to a string of its own first, so a long chain renders in time
// linear in its length.
func (a *Arith) String() string {
	var b strings.Builder
	a.write(&b)
	return b.String()
}

func (a *Arith) write(b *strings.Builder) {
	b.WriteByte('(')
	for i, e := range [2]Expr{a.L, a.R} {
		if i == 1 {
			b.WriteString(" " + a.Op.String() + " ")
		}
		if x, ok := e.(*Arith); ok {
			x.write(b)
		} else {
			b.WriteString(e.String())
		}
	}
	b.WriteByte(')')
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[op] }

// Cmp is a comparison. A WHERE takes the rows it selects (selectWhere); as a
// value it is a 0/1 Int64 vector.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison, validating operand type compatibility.
func NewCmp(op CmpOp, l, r Expr) (*Cmp, error) {
	ls, rs := l.Type() == schema.Str, r.Type() == schema.Str
	if ls != rs {
		return nil, fmt.Errorf("engine: cannot compare %v with %v", l.Type(), r.Type())
	}
	return &Cmp{Op: op, L: l, R: r}, nil
}

// Type implements Expr.
func (c *Cmp) Type() schema.Type { return schema.Int64 }

// cmpTruth is each operator's result by the sign of l compared with r:
// index 0 when l < r, 1 when neither is less (equal — or, for floats,
// unordered: a NaN is neither less nor greater), 2 when l > r.
var cmpTruth = [...][3]int{
	OpEq: {0, 1, 0},
	OpNe: {1, 0, 1},
	OpLt: {1, 0, 0},
	OpLe: {1, 1, 0},
	OpGt: {0, 0, 1},
	OpGe: {0, 1, 1},
}

// Eval implements Expr.
func (c *Cmp) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) { return predicateVector(c, bc) }

// selectRows is selectWhere for a comparison. The operator becomes a
// three-entry truth table once per chunk; a literal operand is taken as a
// scalar (from the left by mirroring the table), against a string column
// decoded from a dictionary page once per entry.
func (c *Cmp) selectRows(bc *chunk.BinaryChunk, cand, dst []int) ([]int, error) {
	le, re, truth := c.L, c.R, cmpTruth[c.Op]
	if _, ok := le.(*Const); ok {
		le, re = re, le
		truth[0], truth[2] = truth[2], truth[0]
	}
	l, err := le.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(le, l)
	rc, r, err := rightOperand(re, bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(re, r)
	n := bc.Rows
	switch {
	case l.Type == schema.Str && rc != nil && l.Dict != nil:
		return selectDict(dst, cand, l, n, func(s string) bool { return truth[1+strings.Compare(s, rc.Str)] != 0 }), nil
	case l.Type == schema.Str && rc != nil:
		return selectFunc(dst, cand, n, func(i int) int { return truth[1+strings.Compare(l.Strs[i], rc.Str)] }), nil
	case l.Type == schema.Str:
		return selectFunc(dst, cand, n, func(i int) int { return truth[1+strings.Compare(l.Strs[i], r.Strs[i])] }), nil
	case l.Type == schema.Int64 && re.Type() == schema.Int64:
		if rc != nil {
			return dst[:selectScalar(verdictOf(truth), dst, cand, l.Ints[:n], rc.Int)], nil
		}
		return dst[:selectVectors(verdictOf(truth), dst, cand, l.Ints[:n], r.Ints[:n])], nil
	}
	lf, lscratch := asFloats(l)
	defer chunk.PutVector(lscratch)
	if rc != nil {
		return dst[:selectScalar(verdictOf(truth), dst, cand, lf[:n], rc.float())], nil
	}
	rf, rscratch := asFloats(r)
	defer chunk.PutVector(rscratch)
	return dst[:selectVectors(verdictOf(truth), dst, cand, lf[:n], rf[:n])], nil
}

// selectWhere writes to dst, in ascending order, the rows of cand — every
// row of bc when cand is nil — at which the Int64 predicate e is non-zero.
// dst has room for every candidate and may be cand itself. A comparison,
// LIKE or connective selects without a 0/1 vector: AND refines the rows its
// left side selected in place, OR merges the left side's rows with the ones
// the right side selects among the rest, NOT takes the rest. Any other
// expression is evaluated and its non-zero rows taken. Whatever cand holds,
// a comparison's operands are evaluated over every row, so a zero divisor
// under AND or OR fails at the row, with the message, it would alone.
func selectWhere(e Expr, bc *chunk.BinaryChunk, cand, dst []int) ([]int, error) {
	switch e := e.(type) {
	case *Cmp:
		return e.selectRows(bc, cand, dst)
	case *Like:
		return e.selectRows(bc, cand, dst)
	case *Logic:
		return e.selectRows(bc, cand, dst)
	}
	v, err := e.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(e, v)
	return dst[:selectScalar(verdictOf(cmpTruth[OpNe]), dst, cand, v.Ints[:bc.Rows], 0)], nil
}

// predicateVector is a predicate as a value: 1 at the rows selectWhere
// selects, 0 at the others.
func predicateVector(e Expr, bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	buf := getSel(bc.Rows)
	defer selPool.Put(buf)
	sel, err := selectWhere(e, bc, nil, *buf)
	if err != nil {
		return nil, err
	}
	out := chunk.GetVector(schema.Int64, bc.Rows)
	for _, i := range sel {
		out.Ints[i] = 1
	}
	return out, nil
}

// selPool recycles the selections OR and NOT hold beside the one they
// write, and the one a predicate's 0/1 vector is built from.
var selPool = sync.Pool{New: func() any { return new([]int) }}

// getSel returns a pooled selection of n rows. It is never nil: a nil
// selection means every row.
func getSel(n int) *[]int {
	p := selPool.Get().(*[]int)
	if *p == nil || cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return p
}

// The selection kernels write to dst the rows of cand — 0 to n-1 when cand
// is nil — that pass, in order. Every row is stored and the count advanced
// by its 0/1 verdict, so no row costs a branch however the verdicts fall.
// dst may be cand itself: a row is stored at or before the position it was
// read from.

// verdict is a cmpTruth row as masks, for the numeric kernels: a row's
// verdict is c ^ (lt&ma | gt&mb), lt and gt being 1 when l < r and l > r
// (never both; neither for an equal or unordered pair). Two compares and
// four ALU operations, where indexing the table costs a load and a bounds
// check, and the kernels run about half again as fast.
type verdict struct{ c, ma, mb int }

func verdictOf(truth [3]int) verdict {
	return verdict{truth[1], truth[0] ^ truth[1], truth[2] ^ truth[1]}
}

func pass[T int64 | float64](v verdict, a, b T) int {
	return v.c ^ (b2i(a < b)&v.ma | b2i(a > b)&v.mb)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectScalar and selectVectors return how many rows they wrote to dst,
// not dst resliced: with its capacity live the loops ran out of registers.
func selectScalar[T int64 | float64](v verdict, dst, cand []int, l []T, s T) int {
	k := 0
	if cand == nil {
		for i, x := range l {
			dst[k] = i
			k += pass(v, x, s)
		}
		return k
	}
	for _, i := range cand {
		dst[k] = i
		k += pass(v, l[i], s)
	}
	return k
}

func selectVectors[T int64 | float64](v verdict, dst, cand []int, l, r []T) int {
	k := 0
	if cand == nil {
		r = r[:len(l)]
		for i, x := range l {
			dst[k] = i
			k += pass(v, x, r[i])
		}
		return k
	}
	for _, i := range cand {
		dst[k] = i
		k += pass(v, l[i], r[i])
	}
	return k
}

// selectDict selects the rows of v, a string vector decoded from a
// dictionary page, that f accepts: f runs once per dictionary entry, into a
// table the codes then index.
func selectDict(dst, cand []int, v *chunk.Vector, n int, f func(string) bool) []int {
	var tbl [256]int
	for c, s := range v.Dict {
		tbl[c] = b2i(f(s))
	}
	codes, k := v.Codes[:n], 0
	if cand == nil {
		for i, c := range codes {
			dst[k] = i
			k += tbl[c]
		}
		return dst[:k]
	}
	for _, i := range cand {
		dst[k] = i
		k += tbl[codes[i]]
	}
	return dst[:k]
}

// selectFunc selects the rows whose verdict is f(row): the per-row path of a
// string vector without a dictionary.
func selectFunc(dst, cand []int, n int, f func(i int) int) []int {
	k := 0
	if cand == nil {
		for i := 0; i < n; i++ {
			dst[k] = i
			k += f(i)
		}
		return dst[:k]
	}
	for _, i := range cand {
		dst[k] = i
		k += f(i)
	}
	return dst[:k]
}

// minus writes to dst the rows of cand (0 to n-1 when nil) that are not in
// sel, a subsequence of them; dst may be cand itself.
func minus(dst, cand []int, n int, sel []int) []int {
	if cand != nil {
		n = len(cand)
	}
	k, j := 0, 0
	for x := 0; x < n; x++ {
		i := x
		if cand != nil {
			i = cand[x]
		}
		if j < len(sel) && sel[j] == i {
			j++
			continue
		}
		dst[k] = i
		k++
	}
	return dst[:k]
}

// merge writes to dst the union of a and b, two ascending selections with
// no row in common; dst is neither.
func merge(dst, a, b []int) []int {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst[k], a = a[0], a[1:]
		} else {
			dst[k], b = b[0], b[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	k += copy(dst[k:], b)
	return dst[:k]
}

// Columns implements Expr.
func (c *Cmp) Columns(dst []int) []int { return c.R.Columns(c.L.Columns(dst)) }

// String implements Expr.
func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
	OpNot
)

func (op LogicOp) String() string { return [...]string{"AND", "OR", "NOT"}[op] }

// Logic combines boolean (0/1 Int64) expressions.
type Logic struct {
	Op   LogicOp
	L, R Expr // R is nil for NOT
}

// NewLogic builds a boolean connective over Int64 (0/1) operands.
func NewLogic(op LogicOp, l, r Expr) (*Logic, error) {
	if l.Type() != schema.Int64 || (op != OpNot && r.Type() != schema.Int64) {
		return nil, fmt.Errorf("engine: %s requires boolean operands", op)
	}
	return &Logic{Op: op, L: l, R: r}, nil
}

// Type implements Expr.
func (l *Logic) Type() schema.Type { return schema.Int64 }

// Eval implements Expr.
func (l *Logic) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) { return predicateVector(l, bc) }

// selectRows is selectWhere for a connective. Both sides are evaluated
// whatever the left one selects, as node-by-node evaluation did, so an
// error on the right is raised even where no row is left to test.
func (l *Logic) selectRows(bc *chunk.BinaryChunk, cand, dst []int) ([]int, error) {
	if l.Op == OpAnd {
		sel, err := selectWhere(l.L, bc, cand, dst)
		if err != nil {
			return nil, err
		}
		return selectWhere(l.R, bc, sel, sel)
	}
	lbuf := getSel(bc.Rows)
	defer selPool.Put(lbuf)
	sel, err := selectWhere(l.L, bc, cand, *lbuf)
	if err != nil {
		return nil, err
	}
	if l.Op == OpNot {
		return minus(dst, cand, bc.Rows, sel), nil
	}
	rbuf := getSel(bc.Rows)
	defer selPool.Put(rbuf)
	rest := minus(*rbuf, cand, bc.Rows, sel)
	if rest, err = selectWhere(l.R, bc, rest, rest); err != nil {
		return nil, err
	}
	return merge(dst, sel, rest), nil
}

// Columns implements Expr.
func (l *Logic) Columns(dst []int) []int {
	dst = l.L.Columns(dst)
	if l.R != nil {
		dst = l.R.Columns(dst)
	}
	return dst
}

// String implements Expr.
func (l *Logic) String() string {
	if l.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", l.L)
	}
	return fmt.Sprintf("(%s %s %s)", l.L, l.Op, l.R)
}

// Like matches a string expression against a SQL LIKE pattern ('%' matches
// any run, '_' matches one byte). The SAM workload's "reads exhibiting a
// certain pattern" predicate compiles to this. The pattern is held only in
// compiled form, and NewLike is the only way to set it.
type Like struct {
	E      Expr
	Negate bool

	m likeMatcher
}

// NewLike builds a LIKE predicate over a string expression.
func NewLike(e Expr, pattern string, negate bool) (*Like, error) {
	if e.Type() != schema.Str {
		return nil, fmt.Errorf("engine: LIKE requires a string operand")
	}
	return &Like{E: e, Negate: negate, m: compileLike(pattern)}, nil
}

// Type implements Expr.
func (l *Like) Type() schema.Type { return schema.Int64 }

// Eval implements Expr.
func (l *Like) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) { return predicateVector(l, bc) }

// selectRows is selectWhere for LIKE: once per dictionary entry when the
// operand has one, else once per row.
func (l *Like) selectRows(bc *chunk.BinaryChunk, cand, dst []int) ([]int, error) {
	v, err := l.E.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(l.E, v)
	if v.Dict != nil {
		return selectDict(dst, cand, v, bc.Rows, l.matches), nil
	}
	return selectFunc(dst, cand, bc.Rows, func(i int) int { return b2i(l.matches(v.Strs[i])) }), nil
}

func (l *Like) matches(s string) bool { return l.m.match(s) != l.Negate }

// likeMatcher is a LIKE pattern compiled once per query. A pattern without
// '_' is its literal segments between the '%'s: one segment is an exact
// match; otherwise the first is anchored at the start, the last at the end,
// and the ones between are found leftmost and in order in what the two
// leave. A pattern with '_' is matched by likeMatch. The zero value is the
// empty pattern, which matches only "".
type likeMatcher struct {
	pattern  string   // as written
	under    bool     // the pattern holds '_'
	wild     bool     // the pattern holds '%'; without one, pre is all of it
	pre, suf string   // the segments before the first '%' and after the last
	mids     []string // the non-empty segments between
}

func compileLike(p string) likeMatcher {
	m := likeMatcher{pattern: p, under: strings.IndexByte(p, '_') >= 0}
	segs := strings.Split(p, "%")
	m.pre, m.suf, m.wild = segs[0], segs[len(segs)-1], len(segs) > 1
	for _, seg := range segs[1:max(1, len(segs)-1)] {
		if seg != "" {
			m.mids = append(m.mids, seg)
		}
	}
	return m
}

func (m *likeMatcher) match(s string) bool {
	switch {
	case m.under:
		return likeMatch(s, m.pattern)
	case !m.wild:
		return s == m.pre
	}
	// The anchors must not overlap: 'a%a' does not match "a".
	if len(s) < len(m.pre)+len(m.suf) || s[:len(m.pre)] != m.pre || s[len(s)-len(m.suf):] != m.suf {
		return false
	}
	s = s[len(m.pre) : len(s)-len(m.suf)]
	for _, seg := range m.mids {
		i := strings.Index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return true
}

// likeMatch implements SQL LIKE with '%' and '_' wildcards using the
// classic two-pointer backtracking algorithm (linear for patterns with a
// single '%' run, worst-case quadratic). It matches the patterns with '_'
// and is the oracle the compiled matcher is held to.
func likeMatch(s, p string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		// '%' first: a '%' in s is not a literal match for the wildcard.
		case pi < len(p) && p[pi] == '%':
			star, match = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Columns implements Expr.
func (l *Like) Columns(dst []int) []int { return l.E.Columns(dst) }

// String implements Expr.
func (l *Like) String() string {
	not := ""
	if l.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sLIKE '%s')", l.E, not, l.m.pattern)
}

// DedupColumns returns the sorted, de-duplicated ordinals referenced by the
// expressions.
func DedupColumns(exprs ...Expr) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, c := range e.Columns(nil) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	// Insertion sort keeps this dependency-free and fast for small lists.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
