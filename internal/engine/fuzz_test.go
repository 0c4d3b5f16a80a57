package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
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
// and evaluates it over two chunks drawn from the seed, one over the whole
// int64 range and its twin over int32's, each once as converted and once
// decoded from its pages (string columns with their dictionaries, the twin's
// integer columns narrow): as a value, and when it is an Int64 as a WHERE
// selection too. Each must equal the node-by-node reference, refColumn,
// errors included.
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
		plain, narrow := fuzzChunk(t, seed, false), fuzzChunk(t, seed, true)
		pages := pageDecoded(t, []*chunk.BinaryChunk{plain, narrow})
		for _, c := range []int{0, 1} {
			if v := pages[1].Column(c); v.Int32 == nil {
				t.Fatalf("the int32-range twin's column %d decoded wide", c)
			}
		}
		for _, bc := range []*chunk.BinaryChunk{plain, pages[0], narrow, pages[1]} {
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
		// Among them the first values outside int32 on either side,
		// which a narrow column compares against without truncating.
		return ConstInt([]int64{0, 1, -1, 3, 16, math.MinInt64, math.MaxInt64, -7,
			1 << 31, -1<<31 - 1, math.MaxInt32, math.MinInt32}[d.next()%12])
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
// enough to be stored as a dictionary page. With int32 set the integers are
// int32's — its extremes, ±16 and negative dividends for % among them — so
// every integer page of the chunk is an int32 page and decodes narrow.
func fuzzChunk(t *testing.T, seed int64, int32s bool) *chunk.BinaryChunk {
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Intn(41)
	ints := []int64{0, 1, -1, 2, 3, 16, -16, math.MinInt64, math.MaxInt64, rng.Int63()}
	if int32s {
		ints = []int64{0, 1, -1, 2, 3, 16, -16, -7, -17, math.MaxInt32, -math.MaxInt32, math.MinInt32, int64(rng.Int31()) - int64(rng.Int31())}
	}
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

// aggSch is FuzzGroupAgg's schema: integer columns of a narrow domain (n),
// a wide one (w) and a mostly narrow one that now and then jumps far (m —
// its keys outgrow the direct index part way through a chunk), a float
// column and a string column.
var aggSch = schema.MustNew(
	schema.Column{Name: "n", Type: schema.Int64},
	schema.Column{Name: "w", Type: schema.Int64},
	schema.Column{Name: "m", Type: schema.Int64},
	schema.Column{Name: "f", Type: schema.Float64},
	schema.Column{Name: "s", Type: schema.Str},
)

// FuzzGroupAgg is the aggregation's differential target. The input draws a
// query — no key, a column, `col % k` (k a power of two or not) or a
// composite key; one to five items mixing COUNT(*), COUNT/SUM/AVG/MIN/MAX
// over columns and expressions, repeated inputs and the echoed key; an
// optional WHERE — and the seed draws up to six chunks, which one to three
// partials split at chunk boundaries consume and which are merged, in chunk
// order, after a trip through EncodePartial/DecodePartial: once as built and
// once decoded from their pages, where n and m are narrow. The Result must
// equal refGroupAgg's: a row-at-a-time fold into a map of full per-cell
// state. Floats are quarters, signed zeros and infinities, so every sum is
// exact whatever the split; NaN is left out because a NaN extreme depends
// on where the rows are split (DESIGN.md §7).
func FuzzGroupAgg(f *testing.F) {
	f.Add(int64(1), []byte{1, 0, 3, 0, 1, 2, 2, 3, 0})
	f.Add(int64(2), []byte{2, 2, 2, 7, 4, 0, 0, 3, 6, 4, 2, 1, 1})
	f.Add(int64(3), []byte{3, 3, 1, 1, 2, 0, 1, 4, 5, 1, 2})
	f.Add(int64(4), []byte{0, 4, 1, 4, 3, 2, 2, 5, 1, 3, 0, 2})
	f.Add(int64(5), []byte{1, 4, 5, 0, 4, 3, 6, 2, 1, 4, 4, 2, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		sql := groupAggSQL(&treeDecoder{src: shape})
		q, err := ParseSQL(sql, aggSch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rng := rand.New(rand.NewSource(seed))
		chunks := aggChunks(t, rng)
		want := refGroupAgg(t, q, chunks)

		// Split points: the partials take consecutive runs of chunks.
		cuts := []int{0, len(chunks)}
		for i := rng.Intn(3); i > 0; i-- {
			cuts = append(cuts, rng.Intn(len(chunks)+1))
		}
		slices.Sort(cuts)
		for _, set := range [][]*chunk.BinaryChunk{chunks, pageDecoded(t, chunks)} {
			var root *Partial
			for i := 1; i < len(cuts); i++ {
				p, err := NewPartial(q, aggSch)
				if err != nil {
					t.Fatal(err)
				}
				for _, bc := range set[cuts[i-1]:cuts[i]] {
					if _, err := p.ConsumeCounted(bc); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				data, err := EncodePartial(p, 0)
				if err != nil {
					t.Fatal(err)
				}
				if p, err = DecodePartial(q, aggSch, data); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if root == nil {
					root = p
				} else if err := root.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			got, err := root.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: %d groups, want %d", sql, len(got.Rows), len(want.Rows))
			}
			for i, row := range got.Rows {
				for j, v := range row {
					if !sameCellOrNaN(v, want.Rows[i][j]) {
						t.Fatalf("%s: group %d (%v) column %d: %v, want %v", sql, i, want.Rows[i], j, v, want.Rows[i][j])
					}
				}
			}
		}
	})
}

// groupAggSQL decodes FuzzGroupAgg's statement.
func groupAggSQL(d *treeDecoder) string {
	pick := func(opts ...string) string { return opts[d.next()%len(opts)] }
	key := func() string {
		if d.next()%2 == 0 {
			return pick("n", "w", "m", "s", "f")
		}
		return pick("n", "w", "m") + " % " + pick("16", "7", "1024", "3", "1")
	}
	var keys []string
	switch d.next() % 4 {
	case 1, 2:
		keys = []string{key()}
	case 3:
		keys = []string{key(), key()}
	}
	var items []string
	for i := d.next()%5 + 1; i > 0; i-- {
		switch c := d.next() % 8; {
		case c == 0:
			items = append(items, "COUNT(*)")
		case c == 1 && len(keys) > 0:
			items = append(items, keys[d.next()%len(keys)])
		default:
			fn := pick("COUNT", "SUM", "AVG", "MIN", "MAX")
			in := pick("n", "w", "m", "f", "s", "n + m", "m % 5", "f + 1.5")
			if in == "s" && (fn == "SUM" || fn == "AVG") {
				fn = "MIN"
			}
			items = append(items, fn+"("+in+")")
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
	if d.next()%2 == 1 {
		sql += " WHERE " + pick("n < 3", "m % 2 = 0", "f >= 0.0", "s <> 'b'", "w > 0")
	}
	if len(keys) > 0 {
		sql += " GROUP BY " + strings.Join(keys, ", ")
	}
	return sql
}

// aggChunks draws one to six chunks of zero to forty rows over aggSch.
func aggChunks(t *testing.T, rng *rand.Rand) []*chunk.BinaryChunk {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b", "ab", "héllo", "z"}
	wide := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}
	chunks := make([]*chunk.BinaryChunk, 1+rng.Intn(6))
	for id := range chunks {
		rows := rng.Intn(41)
		bc := chunk.NewBinary(aggSch, id, rows)
		n, w, m := chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows)
		fv, s := chunk.NewVector(schema.Float64, rows), chunk.NewVector(schema.Str, rows)
		for r := 0; r < rows; r++ {
			n.Ints[r] = rng.Int63n(17) - 8
			w.Ints[r] = rng.Int63() - rng.Int63()
			if rng.Intn(4) == 0 {
				w.Ints[r] = wide[rng.Intn(len(wide))]
			}
			m.Ints[r] = rng.Int63n(64) - 20
			if rng.Intn(30) == 0 {
				m.Ints[r] = rng.Int63n(1<<20) - 1<<19
			}
			fv.Floats[r] = float64(rng.Intn(401)-200) * 0.25
			if rng.Intn(20) == 0 {
				fv.Floats[r] = floats[rng.Intn(len(floats))]
			}
			s.Strs[r] = strs[rng.Intn(len(strs))]
		}
		for c, v := range []*chunk.Vector{n, w, m, fv, s} {
			if err := bc.SetColumn(c, v); err != nil {
				t.Fatal(err)
			}
		}
		chunks[id] = bc
	}
	return chunks
}

// refCell is one item's state for one group in refGroupAgg: every field,
// whatever the function.
type refCell struct {
	count, sumI int64
	sumF        float64
	min, max    Value
	seen        bool
}

// refGroupAgg is the reference aggregation: each selected row, in chunk
// order, looked up by its canonical key in a map and folded into every
// cell; groups sorted by that key; a query without GROUP BY yields its one
// row even over no rows.
func refGroupAgg(t *testing.T, q *Query, chunks []*chunk.BinaryChunk) *Result {
	type group struct {
		keys  []Value
		cells []refCell
	}
	groups := map[string]*group{}
	if len(q.GroupBy) == 0 {
		groups[""] = &group{cells: make([]refCell, len(q.Items))}
	}
	column := func(e Expr, bc *chunk.BinaryChunk) []Value {
		vals, err := refColumn(e, bc)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	for _, bc := range chunks {
		keep := make([]bool, bc.Rows)
		for r := range keep {
			keep[r] = true
		}
		if q.Where != nil {
			for r, v := range column(q.Where, bc) {
				keep[r] = v.Int != 0
			}
		}
		keyCols := make([][]Value, len(q.GroupBy))
		for i, g := range q.GroupBy {
			keyCols[i] = column(g, bc)
		}
		inputs := make([][]Value, len(q.Items))
		for i, it := range q.Items {
			if it.Agg != AggNone && it.Expr != nil {
				inputs[i] = column(it.Expr, bc)
			}
		}
		for r := 0; r < bc.Rows; r++ {
			if !keep[r] {
				continue
			}
			var kb []byte
			keys := make([]Value, len(keyCols))
			for i, col := range keyCols {
				keys[i] = col[r]
				switch v := col[r]; v.Typ {
				case schema.Int64:
					kb = strconv.AppendInt(kb, v.Int, 10)
				case schema.Float64:
					kb = strconv.AppendFloat(kb, v.Float, 'g', -1, 64)
				default:
					kb = append(kb, v.Str...)
				}
				kb = append(kb, 0)
			}
			g := groups[string(kb)]
			if g == nil {
				g = &group{keys: keys, cells: make([]refCell, len(q.Items))}
				groups[string(kb)] = g
			}
			for i := range q.Items {
				c := &g.cells[i]
				c.count++
				if inputs[i] == nil {
					continue
				}
				x := inputs[i][r]
				c.sumI += x.Int
				c.sumF += x.Float
				if !c.seen || compareValues(x, c.min) < 0 {
					c.min = x
				}
				if !c.seen || compareValues(x, c.max) > 0 {
					c.max = x
				}
				c.seen = true
			}
		}
	}
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	slices.Sort(names)
	res := &Result{Cols: q.ColumnNames()}
	for _, k := range names {
		g := groups[k]
		row := make([]Value, len(q.Items))
		for i, it := range q.Items {
			c := g.cells[i]
			float := it.Expr != nil && it.Expr.Type() == schema.Float64
			switch it.Agg {
			case AggNone:
				for j, e := range q.GroupBy {
					if e.String() == it.Expr.String() {
						row[i] = g.keys[j]
					}
				}
			case AggCount:
				row[i] = IntValue(c.count)
			case AggSum:
				row[i] = IntValue(c.sumI)
				if float {
					row[i] = FloatValue(c.sumF)
				}
			case AggAvg:
				row[i] = FloatValue(float64(c.sumI) / float64(c.count))
				if float {
					row[i] = FloatValue(c.sumF / float64(c.count))
				}
				if c.count == 0 {
					row[i] = FloatValue(math.NaN())
				}
			case AggMin, AggMax:
				row[i] = c.min
				if it.Agg == AggMax {
					row[i] = c.max
				}
				if !c.seen {
					row[i] = Value{Typ: it.Expr.Type()} // MIN and MAX of no rows
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// topSch is FuzzTopK's schema: an integer column of few values (i), a wide
// one (w), a float column of few values — NaN, ±0 and ±Inf among them — a
// string column of few values, and id, unique per row, which every query
// selects last so that a tie broken by the wrong provenance shows.
var topSch = schema.MustNew(
	schema.Column{Name: "i", Type: schema.Int64},
	schema.Column{Name: "w", Type: schema.Int64},
	schema.Column{Name: "f", Type: schema.Float64},
	schema.Column{Name: "s", Type: schema.Str},
	schema.Column{Name: "id", Type: schema.Int64},
)

// FuzzTopK is the top-k heap's differential target. The input draws a
// LIMIT query — one to three ORDER BY keys by position, ASC or DESC, over
// columns and expressions, or none; an optional WHERE; k from 1 to past the
// row count — and a seed the chunks, their delivery order (shuffled IDs)
// and a split over executors, each partial maybe through the wire, joined
// with Merge — over the chunks as built and again decoded from their pages,
// where i and id are narrow. The result must equal every selected row
// sorted canonically (keys, then chunk, then row) and cut to k; after every
// chunk an executor's published bound must be its heap's root, and its
// count the WHERE's.
func FuzzTopK(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 1, 1, 0, 0, 3})
	f.Add(int64(2), []byte{3, 2, 3, 1, 1, 0, 2, 0, 1, 1, 9})
	f.Add(int64(3), []byte{1, 4, 0, 0, 5, 1, 0})
	f.Add(int64(4), []byte{4, 5, 6, 2, 3, 1, 3, 1, 1, 0, 0, 3, 1, 40})
	f.Add(int64(5), []byte{2, 1, 2, 2, 2, 0, 1, 1, 4, 0, 7})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		rng := rand.New(rand.NewSource(seed))
		chunks := topChunks(t, rng)
		total := 0
		for _, bc := range chunks {
			total += bc.Rows
		}
		sql := topKSQL(&treeDecoder{src: shape}, total)
		q, err := ParseSQL(sql, topSch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := refTopK(t, q, chunks)

		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		cuts := []int{0, len(chunks)}
		for i := rng.Intn(3); i > 0; i-- {
			cuts = append(cuts, rng.Intn(len(chunks)+1))
		}
		slices.Sort(cuts)
		for _, set := range [][]*chunk.BinaryChunk{chunks, pageDecoded(t, chunks)} {
			var root *Partial
			for i := 1; i < len(cuts); i++ {
				ex, err := NewExecutor(q, topSch)
				if err != nil {
					t.Fatal(err)
				}
				for _, bc := range set[cuts[i-1]:cuts[i]] {
					matched, err := ex.ConsumeCounted(bc)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if w := refMatched(t, q, bc); matched != w {
						t.Fatalf("%s: chunk %d: %d rows matched, want %d", sql, bc.ID, matched, w)
					}
					got, gotOK := ex.Bound()
					worst, full := ex.p.Bound()
					if len(q.OrderBy) > 0 && (gotOK != full || fmt.Sprint(got) != fmt.Sprint(worst)) {
						t.Fatalf("%s: chunk %d: published bound %v (%v), heap root %v (%v)", sql, bc.ID, got, gotOK, worst, full)
					}
				}
				p, err := ex.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					data, err := EncodePartial(p, 0)
					if err != nil {
						t.Fatal(err)
					}
					if p, err = DecodePartial(q, topSch, data); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				if root == nil {
					root = p
				} else if err := root.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			got, err := root.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%s: %d rows, want %d", sql, len(got.Rows), len(want))
			}
			for i, row := range got.Rows {
				for j, v := range row {
					if !sameCellOrNaN(v, want[i][j]) {
						t.Fatalf("%s: row %d: %v, want %v", sql, i, row, want[i])
					}
				}
			}
		}
	})
}

// topKSQL decodes FuzzTopK's query over topSch, whose chunks hold total
// rows.
func topKSQL(d *treeDecoder, total int) string {
	pick := func(opts ...string) string { return opts[d.next()%len(opts)] }
	var items []string
	for i := d.next()%3 + 1; i > 0; i-- {
		items = append(items, pick("i", "w", "f", "s", "i + w", "f + 1.5", "i % 3"))
	}
	var keys []string
	for i := d.next() % 4; i > 0; i-- {
		keys = append(keys, strconv.Itoa(d.next()%len(items)+1)+pick("", " DESC", " ASC"))
	}
	sql := "SELECT " + strings.Join(items, ", ") + ", id FROM t"
	if d.next()%2 == 1 {
		sql += " WHERE " + pick("i < 1", "f >= 0.0", "s <> 'b'", "w > 0", "i % 2 = 0")
	}
	if len(keys) > 0 {
		sql += " ORDER BY " + strings.Join(keys, ", ")
	}
	k := 1 + d.next()%8
	if d.next()%2 == 1 {
		k = 1 + d.next()%(total+3)
	}
	return sql + " LIMIT " + strconv.Itoa(k)
}

// topChunks draws one to six chunks of zero to forty rows over topSch; id
// numbers the rows across them.
func topChunks(t *testing.T, rng *rand.Rand) []*chunk.BinaryChunk {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.5}
	strs := []string{"", "a", "b", "ab", "z"}
	chunks := make([]*chunk.BinaryChunk, 1+rng.Intn(6))
	next := int64(0)
	for id := range chunks {
		rows := rng.Intn(41)
		bc := chunk.NewBinary(topSch, id, rows)
		vecs := []*chunk.Vector{
			chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows),
			chunk.NewVector(schema.Float64, rows), chunk.NewVector(schema.Str, rows),
			chunk.NewVector(schema.Int64, rows),
		}
		for r := 0; r < rows; r++ {
			vecs[0].Ints[r] = rng.Int63n(5) - 2
			vecs[1].Ints[r] = rng.Int63() - rng.Int63()
			vecs[2].Floats[r] = floats[rng.Intn(len(floats))]
			vecs[3].Strs[r] = strs[rng.Intn(len(strs))]
			vecs[4].Ints[r] = next
			next++
		}
		for c, v := range vecs {
			if err := bc.SetColumn(c, v); err != nil {
				t.Fatal(err)
			}
		}
		chunks[id] = bc
	}
	return chunks
}

// refMatched counts the rows of bc the query's WHERE selects, row by row.
func refMatched(t *testing.T, q *Query, bc *chunk.BinaryChunk) int {
	if q.Where == nil {
		return bc.Rows
	}
	keep, err := refColumn(q.Where, bc)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range keep {
		if v.Int != 0 {
			n++
		}
	}
	return n
}

// refTopK is the reference: every selected row's select-list values,
// evaluated row by row, sorted by the ORDER BY keys, then chunk, then row,
// and cut to the LIMIT.
func refTopK(t *testing.T, q *Query, chunks []*chunk.BinaryChunk) [][]Value {
	type ref struct {
		chunk, row int
		vals       []Value
	}
	var rows []ref
	for _, bc := range chunks {
		cols := make([][]Value, len(q.Items))
		for i, it := range q.Items {
			var err error
			if cols[i], err = refColumn(it.Expr, bc); err != nil {
				t.Fatal(err)
			}
		}
		var keep []Value
		if q.Where != nil {
			var err error
			if keep, err = refColumn(q.Where, bc); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < bc.Rows; r++ {
			if keep != nil && keep[r].Int == 0 {
				continue
			}
			vals := make([]Value, len(cols))
			for i := range cols {
				vals[i] = cols[i][r]
			}
			rows = append(rows, ref{bc.ID, r, vals})
		}
	}
	slices.SortFunc(rows, func(a, b ref) int {
		for _, k := range q.OrderBy {
			c := compareValues(a.vals[k.Column], b.vals[k.Column])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		if a.chunk != b.chunk {
			return a.chunk - b.chunk
		}
		return a.row - b.row
	})
	out := make([][]Value, 0, q.Limit)
	for i := 0; i < len(rows) && i < q.Limit; i++ {
		out = append(out, rows[i].vals)
	}
	return out
}

// FuzzSelect checks every selection kernel against cmpTruth, row by row:
// selectInts over a narrow and a wide vector against an int64 constant (one
// outside int32 among them), selectScalar over floats, and selectVectors
// over int64 and float64 pairs; under every operator, over every row, over
// a subset of them, and over that subset written in place. The values come
// from palettes of edges — NaN, ±0, ±Inf, the int32 and int64 limits — or
// at random, one per input byte.
func FuzzSelect(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), []byte{2, 2, 2, 200, 3, 3, 255, 4})
	f.Add(int64(3), []byte{5, 6, 7, 8, 9, 10, 5, 6, 7, 8, 9, 10, 128})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		rng := rand.New(rand.NewSource(seed))
		n := len(raw)
		i32, i64, j64 := make([]int32, n), make([]int64, n), make([]int64, n)
		f64, g64 := make([]float64, n), make([]float64, n)
		for r, b := range raw {
			i32[r] = int32(pickInt(rng, b))
			i64[r], j64[r] = pickInt(rng, b), pickInt(rng, byte(rng.Intn(256)))
			f64[r], g64[r] = pickFloat(rng, b), pickFloat(rng, byte(rng.Intn(256)))
		}
		s, sf := pickInt(rng, byte(rng.Intn(256))), pickFloat(rng, byte(rng.Intn(256)))
		if n > 0 && rng.Intn(2) == 0 {
			// A constant the column holds, so equal pairs occur.
			k := rng.Intn(n)
			s, sf = int64(i32[k]), f64[k]
		}
		narrow := &chunk.Vector{Type: schema.Int64, Int32: i32}
		wide := &chunk.Vector{Type: schema.Int64, Ints: i64}
		var subset []int
		inSubset := make([]bool, n)
		for r := 0; r < n; r++ {
			if inSubset[r] = rng.Intn(2) == 0; inSubset[r] {
				subset = append(subset, r)
			}
		}
		for op := OpEq; op <= OpGe; op++ {
			kernels := []struct {
				name  string
				run   func(dst, cand []int) int
				truth func(r int) int
			}{
				{"narrow", func(dst, cand []int) int { return selectInts(op, dst, cand, narrow, n, s) },
					func(r int) int { return truthOf(op, int64(i32[r]) < s, int64(i32[r]) > s) }},
				{"wide", func(dst, cand []int) int { return selectInts(op, dst, cand, wide, n, s) },
					func(r int) int { return truthOf(op, i64[r] < s, i64[r] > s) }},
				{"float", func(dst, cand []int) int { return selectScalar(op, dst, cand, f64, sf) },
					func(r int) int { return truthOf(op, f64[r] < sf, f64[r] > sf) }},
				{"int vectors", func(dst, cand []int) int { return selectVectors(op, dst, cand, i64, j64) },
					func(r int) int { return truthOf(op, i64[r] < j64[r], i64[r] > j64[r]) }},
				{"float vectors", func(dst, cand []int) int { return selectVectors(op, dst, cand, f64, g64) },
					func(r int) int { return truthOf(op, f64[r] < g64[r], f64[r] > g64[r]) }},
			}
			for _, k := range kernels {
				for _, cand := range [][]int{nil, subset} {
					var want []int
					for r := 0; r < n; r++ {
						if (cand == nil || inSubset[r]) && k.truth(r) == 1 {
							want = append(want, r)
						}
					}
					got := make([]int, n)
					got = got[:k.run(got, cand)]
					inPlace := got
					if cand != nil {
						inPlace = slices.Clone(cand)
						inPlace = inPlace[:k.run(inPlace, inPlace)]
					}
					if !slices.Equal(got, want) || !slices.Equal(inPlace, want) {
						t.Fatalf("%s %v (s=%d, sf=%v, cand=%v): got %v, in place %v, want %v", k.name, op, s, sf, cand, got, inPlace, want)
					}
				}
			}
		}
	})
}

// truthOf is cmpTruth's verdict for a pair that compares less, greater, or
// neither: equal, or unordered when a float is NaN.
func truthOf(op CmpOp, less, greater bool) int {
	switch {
	case less:
		return cmpTruth[op][0]
	case greater:
		return cmpTruth[op][2]
	}
	return cmpTruth[op][1]
}

// selectEdges are FuzzSelect's integer palette: zero, ±1, the int32 limits
// and one past them, and the int64 limits.
var selectEdges = []int64{0, 1, -1, math.MinInt32, math.MaxInt32, math.MinInt32 - 1, math.MaxInt32 + 1, math.MinInt64, math.MaxInt64}

// pickInt draws a palette entry for a low byte and a random value for a
// high one, an int32 or an int64 alike.
func pickInt(rng *rand.Rand, b byte) int64 {
	if int(b) < len(selectEdges) {
		return selectEdges[b]
	}
	if b&1 == 0 {
		return int64(int32(rng.Uint32()))
	}
	return int64(rng.Uint64())
}

// pickFloat is pickInt for floats: NaN, ±0, ±Inf and the int32 limits, or
// a random value of either sign.
func pickFloat(rng *rand.Rand, b byte) float64 {
	edges := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, math.MinInt32, math.MaxInt32}
	if int(b) < len(edges) {
		return edges[b]
	}
	return rng.NormFloat64()
}
