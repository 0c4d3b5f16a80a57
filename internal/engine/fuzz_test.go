package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// FuzzParseSQL drives the lexer and parser with arbitrary input. The
// invariant is totality: ParseSQL must return a value or an error, never
// panic, and a successfully parsed query must re-validate.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT SUM(a+b) FROM t",
		"SELECT a, COUNT(*) FROM t WHERE a > 1 AND s LIKE '%x%' GROUP BY a ORDER BY 2 DESC LIMIT 3",
		"SELECT -a * (b + 1.5) AS v FROM t WHERE NOT s = 'it''s'",
		"select min(f), max(f), avg(f) from t where f >= .5 or a <> 0",
		"SELECT",
		"SELECT a FROM",
		"'",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t WHERE ((((a))))=1",
		"SELECT a FROM t ORDER BY",
		"SELECT \x00 FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	sch := schema.MustNew(
		schema.Column{Name: "a", Type: schema.Int64},
		schema.Column{Name: "b", Type: schema.Int64},
		schema.Column{Name: "f", Type: schema.Float64},
		schema.Column{Name: "s", Type: schema.Str},
	)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := ParseSQL(sql, sch)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("parsed query fails validation: %v\nsql: %q", err, sql)
		}
		// Required columns must be valid ordinals.
		for _, c := range q.RequiredColumns() {
			if c < 0 || c >= sch.NumColumns() {
				t.Fatalf("required column %d out of range for %q", c, sql)
			}
		}
	})
}

// FuzzLikeMatch checks the backtracking matcher never panics or loops and
// agrees with a simple reference implementation on wildcard-free patterns,
// and that the compiled matcher NewLike builds agrees with it everywhere.
func FuzzLikeMatch(f *testing.F) {
	f.Add("hello", "h%o")
	f.Add("", "%")
	f.Add("aaaa", "a%a%a")
	f.Add("mississippi", "%iss%_p_")
	// The anchors overlapping, a suffix that also occurs earlier, a
	// pattern of nothing but '%', the empty pattern, a middle segment
	// right before the suffix.
	f.Add("a", "a%a")
	f.Add("aba", "ab%ba")
	f.Add("", "%%")
	f.Add("x", "")
	f.Add("abc", "%b%c")
	f.Fuzz(func(t *testing.T, s, p string) {
		got := likeMatch(s, p)
		m := compileLike(p)
		if c := m.match(s); c != got {
			t.Fatalf("compiled %q on %q = %v, likeMatch = %v", p, s, c, got)
		}
		hasWildcard := false
		for i := 0; i < len(p); i++ {
			if p[i] == '%' || p[i] == '_' {
				hasWildcard = true
				break
			}
		}
		if !hasWildcard && got != (s == p) {
			t.Fatalf("likeMatch(%q,%q) = %v, want equality semantics", s, p, got)
		}
	})
}

// FuzzExprEval decodes a bound expression tree from the input — columns of
// all three types, literals, + - * / %, comparisons, AND/OR/NOT and LIKE —
// and evaluates it over a chunk drawn from the seed, once as converted and
// once decoded from its pages (string columns with their dictionaries): as a
// value, and when it is an Int64 as a WHERE selection too. Each must equal
// the node-by-node reference, refColumn, errors included.
func FuzzExprEval(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 0, 0, 0, 0, 2, 5})
	f.Add(int64(2), []byte{1, 3, 0, 1, 4, 0, 0, 0, 0, 1})
	f.Add(int64(3), []byte{1, 5, 2, 1, 0, 1})
	f.Add(int64(4), []byte{0, 4, 3, 4, 0, 0, 1, 2, 6})
	f.Add(int64(5), []byte{1, 0, 0, 4, 4, 0, 0, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, tree []byte) {
		d := &treeDecoder{src: tree}
		var e Expr
		if d.next()%2 == 0 {
			e = d.num(t, 0)
		} else {
			e = d.pred(t, 0)
		}
		plain := fuzzChunk(t, seed)
		for _, bc := range []*chunk.BinaryChunk{plain, pageDecoded(t, []*chunk.BinaryChunk{plain})[0]} {
			want, wantErr := refColumn(e, bc)
			got, err := e.Eval(bc)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, want %v", e, err, wantErr)
			}
			if err != nil {
				continue
			}
			for r := range want {
				if g := valueAt(got, r); !sameCellOrNaN(g, want[r]) {
					t.Fatalf("%s row %d: %v, want %v", e, r, g, want[r])
				}
			}
			releaseScratch(e, got)
			if e.Type() != schema.Int64 {
				continue
			}
			sel, err := selectWhere(e, bc, nil, make([]int, bc.Rows))
			if err != nil {
				t.Fatalf("%s as a WHERE: %v", e, err)
			}
			if w := refSelection(want, nil); fmt.Sprint(sel) != fmt.Sprint(w) {
				t.Fatalf("%s as a WHERE: %v, want %v", e, sel, w)
			}
		}
	})
}

// sameCellOrNaN is sameCell with every NaN equal to every other: which
// operand's payload a NaN result carries is the hardware's choice.
func sameCellOrNaN(a, b Value) bool {
	return sameCell(a, b) || a.Typ == schema.Float64 && b.Typ == schema.Float64 && math.IsNaN(a.Float) && math.IsNaN(b.Float)
}

// treeDecoder reads an expression over kernelSch from fuzz bytes; once they
// run out every choice is 0, so any input decodes to a finite tree.
type treeDecoder struct{ src []byte }

func (d *treeDecoder) next() int {
	if len(d.src) == 0 {
		return 0
	}
	b := d.src[0]
	d.src = d.src[1:]
	return int(b)
}

func (d *treeDecoder) col(t *testing.T, names ...string) Expr {
	return mustCol(t, names[d.next()%len(names)])
}

// num decodes a numeric expression; past depth 4 only leaves.
func (d *treeDecoder) num(t *testing.T, depth int) Expr {
	b := d.next() % 8
	if depth > 4 {
		b %= 4
	}
	switch b {
	case 0:
		return d.col(t, "i1", "i2")
	case 1:
		return d.col(t, "f1", "f2")
	case 2:
		return ConstInt([]int64{0, 1, -1, 3, 16, math.MinInt64, math.MaxInt64, -7}[d.next()%8])
	case 3:
		return ConstFloat([]float64{0, 2.5, -1.5, 1e300}[d.next()%4])
	case 7:
		return d.pred(t, depth+1)
	}
	op := ArithOp(d.next() % 5)
	l, r := d.num(t, depth+1), d.num(t, depth+1)
	if e, err := NewArith(op, l, r); err == nil {
		return e
	}
	return mustArith(t, OpAdd, l, r) // % over a float operand
}

// str decodes a string leaf.
func (d *treeDecoder) str(t *testing.T) Expr {
	if d.next()%2 == 0 {
		return d.col(t, "s1", "s2")
	}
	return ConstStr([]string{"", "a", "b", "abc", "héllo", "z"}[d.next()%6])
}

// pred decodes an Int64 predicate; past depth 4 only comparisons.
func (d *treeDecoder) pred(t *testing.T, depth int) Expr {
	b := d.next() % 6
	if depth > 4 {
		b %= 2
	}
	var e Expr
	var err error
	switch b {
	case 0:
		op := CmpOp(d.next() % 6)
		e, err = NewCmp(op, d.num(t, depth+1), d.num(t, depth+1))
	case 1:
		e, err = NewCmp(CmpOp(d.next()%6), d.str(t), d.str(t))
	case 2:
		e, err = NewLike(d.str(t), []string{"%", "a%", "%b%", "_", "", "h_llo", "%é%", "a%c"}[d.next()%8], d.next()%2 == 1)
	case 5:
		e, err = NewLogic(OpNot, d.pred(t, depth+1), nil)
	default:
		l := d.pred(t, depth+1)
		if d.next()%4 == 0 {
			// A connective over a non-predicate integer: non-zero is true.
			if n := d.num(t, depth+1); n.Type() == schema.Int64 {
				l = n
			}
		}
		e, err = NewLogic(LogicOp(b-3), l, d.pred(t, depth+1))
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fuzzChunk draws up to 40 rows over kernelSch from a few values per type —
// zero divisors, the integer extremes, NaN and the infinities, strings few
// enough to be stored as a dictionary page.
func fuzzChunk(t *testing.T, seed int64) *chunk.BinaryChunk {
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Intn(41)
	ints := []int64{0, 1, -1, 2, 3, 16, -16, math.MinInt64, math.MaxInt64, rng.Int63()}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 3}
	strs := []string{"", "a", "b", "ab", "abc", "héllo", "z", "b%"}
	bc := chunk.NewBinary(kernelSch, 0, rows)
	for c := 0; c < kernelSch.NumColumns(); c++ {
		v := chunk.NewVector(kernelSch.Column(c).Type, rows)
		for r := 0; r < rows; r++ {
			switch v.Type {
			case schema.Int64:
				v.Ints[r] = ints[rng.Intn(len(ints))]
			case schema.Float64:
				v.Floats[r] = floats[rng.Intn(len(floats))]
			default:
				v.Strs[r] = strs[rng.Intn(len(strs))]
			}
		}
		if err := bc.SetColumn(c, v); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}
