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
}

// NewArith builds an arithmetic expression, validating operand types.
func NewArith(op ArithOp, l, r Expr) (*Arith, error) {
	if l.Type() == schema.Str || r.Type() == schema.Str {
		return nil, fmt.Errorf("engine: arithmetic %s over string operand", op)
	}
	if op == OpMod && (l.Type() != schema.Int64 || r.Type() != schema.Int64) {
		return nil, fmt.Errorf("engine: %% requires integer operands")
	}
	return &Arith{Op: op, L: l, R: r}, nil
}

// Type implements Expr.
func (a *Arith) Type() schema.Type {
	if a.L.Type() == schema.Float64 || a.R.Type() == schema.Float64 {
		return schema.Float64
	}
	return schema.Int64
}

// Eval implements Expr. The operator is switched on once per chunk, not
// per row, and a literal right operand (after moving a commutative
// operator's left literal over) is taken as a scalar instead of being
// materialised bc.Rows times.
func (a *Arith) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
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

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
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

// Cmp is a comparison producing a 0/1 Int64 vector.
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
var cmpTruth = [...][3]int64{
	OpEq: {0, 1, 0},
	OpNe: {1, 0, 1},
	OpLt: {1, 0, 0},
	OpLe: {1, 1, 0},
	OpGt: {0, 0, 1},
	OpGe: {0, 1, 1},
}

// Eval implements Expr. The operator becomes a three-entry truth table once
// per chunk and each row is compared and looked up in one pass; a literal
// operand is taken as a scalar (from the left by mirroring the table).
func (c *Cmp) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
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
	out := chunk.GetVector(schema.Int64, bc.Rows)
	switch {
	case l.Type == schema.Str && rc != nil && l.Dict != nil:
		dictPredicate(out.Ints, l, func(s string) bool { return truth[1+strings.Compare(s, rc.Str)] != 0 })
	case l.Type == schema.Str && rc != nil:
		for i := range out.Ints {
			out.Ints[i] = truth[1+strings.Compare(l.Strs[i], rc.Str)]
		}
	case l.Type == schema.Str:
		for i := range out.Ints {
			out.Ints[i] = truth[1+strings.Compare(l.Strs[i], r.Strs[i])]
		}
	case l.Type == schema.Int64 && re.Type() == schema.Int64:
		if rc != nil {
			cmpScalar(&truth, out.Ints, l.Ints, rc.Int)
		} else {
			cmpVectors(&truth, out.Ints, l.Ints, r.Ints)
		}
	default:
		lf, lscratch := asFloats(l)
		defer chunk.PutVector(lscratch)
		if rc != nil {
			cmpScalar(&truth, out.Ints, lf, rc.float())
		} else {
			rf, rscratch := asFloats(r)
			defer chunk.PutVector(rscratch)
			cmpVectors(&truth, out.Ints, lf, rf)
		}
	}
	return out, nil
}

// sign3 indexes a cmpTruth row: 0 when a < b, 2 when a > b, else 1.
func sign3[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	}
	return 1
}

func cmpVectors[T int64 | float64](truth *[3]int64, out []int64, l, r []T) {
	l, r = l[:len(out)], r[:len(out)]
	for i := range out {
		out[i] = truth[sign3(l[i], r[i])]
	}
}

func cmpScalar[T int64 | float64](truth *[3]int64, out []int64, l []T, s T) {
	l = l[:len(out)]
	for i := range out {
		out[i] = truth[sign3(l[i], s)]
	}
}

// dictPredicate sets out[i] to 1 or 0 as f accepts row i of v, a string
// vector decoded from a dictionary page: f runs once per dictionary entry,
// into a table the codes then index. A vector without a dictionary takes its
// caller's per-row loop instead.
func dictPredicate(out []int64, v *chunk.Vector, f func(string) bool) {
	var tbl [256]int64
	for c, s := range v.Dict {
		if f(s) {
			tbl[c] = 1
		}
	}
	for i, c := range v.Codes[:len(out)] {
		out[i] = tbl[c]
	}
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
func (l *Logic) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	lv, err := l.L.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(l.L, lv)
	out := chunk.GetVector(schema.Int64, bc.Rows)
	if l.Op == OpNot {
		for i := range out.Ints {
			if lv.Ints[i] == 0 {
				out.Ints[i] = 1
			}
		}
		return out, nil
	}
	rv, err := l.R.Eval(bc)
	if err != nil {
		chunk.PutVector(out)
		return nil, err
	}
	defer releaseScratch(l.R, rv)
	for i := range out.Ints {
		a, b := lv.Ints[i] != 0, rv.Ints[i] != 0
		var r bool
		if l.Op == OpAnd {
			r = a && b
		} else {
			r = a || b
		}
		if r {
			out.Ints[i] = 1
		}
	}
	return out, nil
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
func (l *Like) Eval(bc *chunk.BinaryChunk) (*chunk.Vector, error) {
	v, err := l.E.Eval(bc)
	if err != nil {
		return nil, err
	}
	defer releaseScratch(l.E, v)
	out := chunk.GetVector(schema.Int64, bc.Rows)
	if v.Dict != nil {
		dictPredicate(out.Ints, v, l.matches)
		return out, nil
	}
	for i, s := range v.Strs {
		if l.matches(s) {
			out.Ints[i] = 1
		}
	}
	return out, nil
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
