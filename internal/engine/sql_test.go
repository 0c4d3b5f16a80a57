package engine

import (
	"runtime"
	"strings"
	"testing"

	"scanraw/internal/schema"
)

func TestParseSimpleSum(t *testing.T) {
	q, err := ParseSQL("SELECT SUM(a+b) FROM data", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if q.From != "data" || len(q.Items) != 1 || q.Items[0].Agg != AggSum {
		t.Errorf("query = %+v", q)
	}
	if q.Items[0].Name() != "SUM((a + b))" {
		t.Errorf("item name = %q", q.Items[0].Name())
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := ParseSQL("select sum(a) from t where a > 1 group by b limit 5", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil || len(q.GroupBy) != 1 || q.Limit != 5 {
		t.Errorf("query = %+v", q)
	}
}

func TestParseWhereComplex(t *testing.T) {
	q, err := ParseSQL(
		"SELECT COUNT(*) FROM t WHERE (a + 1) * 2 >= b AND NOT s LIKE 'x%' OR f < 0.5",
		testSch)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	// OR binds loosest: ((... AND ...) OR ...)
	if !strings.HasPrefix(s, "((") || !strings.Contains(s, "OR") {
		t.Errorf("precedence wrong: %s", s)
	}
}

func TestParsePrecedence(t *testing.T) {
	q, err := ParseSQL("SELECT a + b * 2 FROM t LIMIT 1", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Items[0].Expr.String(); got != "(a + (b * 2))" {
		t.Errorf("precedence = %s", got)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	q, err := ParseSQL("SELECT a - -3 FROM t", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Items[0].Expr.String(); got != "(a - -3)" {
		t.Errorf("unary minus = %s", got)
	}
	q2, err := ParseSQL("SELECT -a FROM t", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Items[0].Expr.String(); got != "(0 - a)" {
		t.Errorf("unary minus over column = %s", got)
	}
	q3, err := ParseSQL("SELECT -2.5 FROM t", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if got := q3.Items[0].Expr.String(); got != "-2.5" {
		t.Errorf("negative float literal = %s", got)
	}
}

func TestParseAliases(t *testing.T) {
	q, err := ParseSQL("SELECT SUM(a) AS total, COUNT(*) AS n FROM t", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Name() != "total" || q.Items[1].Name() != "n" {
		t.Errorf("aliases = %q, %q", q.Items[0].Name(), q.Items[1].Name())
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := ParseSQL("SELECT COUNT(*) FROM t WHERE s = 'it''s'", testSch)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := q.Where.(*Cmp)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if c.R.(*Const).Str != "it's" {
		t.Errorf("escaped string = %q", c.R.(*Const).Str)
	}
}

func TestParseNotLike(t *testing.T) {
	q, err := ParseSQL("SELECT COUNT(*) FROM t WHERE s NOT LIKE '%x%'", testSch)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := q.Where.(*Like)
	if !ok || !l.Negate {
		t.Errorf("where = %v", q.Where)
	}
}

func TestParseGroupByMulti(t *testing.T) {
	q, err := ParseSQL("SELECT s, a, COUNT(*) FROM t GROUP BY s, a", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 {
		t.Errorf("group-by exprs = %d", len(q.GroupBy))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a",              // missing FROM
		"SELECT a FROM",         // missing table
		"SELECT a FROM t b",     // trailing tokens
		"SELECT nope FROM t",    // unknown column
		"SELECT a FROM t WHERE", // missing predicate
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP a",             // missing BY
		"SELECT SUM(a FROM t",                 // unbalanced paren
		"SELECT a FROM t WHERE s LIKE 5",      // non-string pattern
		"SELECT a + s FROM t",                 // string arithmetic
		"SELECT a FROM t WHERE a = 'x'",       // type mismatch
		"SELECT 'abc FROM t",                  // unterminated string
		"SELECT a ! b FROM t",                 // bad operator
		"SELECT a FROM t WHERE a AND b = 1 @", // bad char
		"SELECT b, SUM(a) FROM t",             // bare column with aggregate
		"SELECT a FROM t LIMIT 1.5",           // fractional limit is a float token... parser expects int
	}
	for _, sql := range bad {
		if _, err := ParseSQL(sql, testSch); err == nil {
			t.Errorf("ParseSQL(%q) should fail", sql)
		}
	}
}

// TestOrderAndHavingKeyErrors: a key of either clause that names no
// select-list column is reported under that clause, and an aggregate
// written out in place of its select-list name says how to name it.
func TestOrderAndHavingKeyErrors(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT b % 16, COUNT(*) FROM t GROUP BY b % 16 HAVING COUNT(*) > 0":       "HAVING cannot compute COUNT(...): name the aggregate in the select list with AS",
		"SELECT b % 16, COUNT(*) FROM t GROUP BY b % 16 ORDER BY SUM(a)":           "ORDER BY cannot compute SUM(...): name the aggregate in the select list with AS",
		"SELECT b, COUNT(*) FROM t GROUP BY b HAVING 5 > 0":                        "HAVING position 5 out of range [1,2]",
		"SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY 5":                          "ORDER BY position 5 out of range [1,2]",
		"SELECT b, COUNT(*) FROM t GROUP BY b HAVING n > 0":                        `HAVING key "n" does not name a select-list column`,
		"SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY n":                          `ORDER BY key "n" does not name a select-list column`,
		"SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING n > 0 ORDER BY x":        `ORDER BY key "x" does not name a select-list column`,
		"SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(b) > 0 ORDER BY n": "HAVING cannot compute COUNT(...)",
	} {
		_, err := ParseSQL(sql, testSch)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", sql, err, want)
		}
	}
	// The named forms still resolve.
	for _, sql := range []string{
		"SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING n > 0 ORDER BY n DESC",
		"SELECT b, COUNT(*) FROM t GROUP BY b HAVING 2 > 0 ORDER BY 2",
	} {
		if _, err := ParseSQL(sql, testSch); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

func TestParseColumnNamedLikeAggregate(t *testing.T) {
	// A schema whose column is literally "sum": without parens it must be
	// treated as a column reference.
	schSum := schema.MustNew(schema.Column{Name: "sum", Type: schema.Int64})
	q, err := ParseSQL("SELECT sum FROM t LIMIT 1", schSum)
	if err != nil {
		t.Fatal(err)
	}
	if q.Items[0].Agg != AggNone {
		t.Errorf("bare 'sum' treated as aggregate: %+v", q.Items[0])
	}
}

func TestParseLimitZeroRejectedAsNegativeEtc(t *testing.T) {
	q, err := ParseSQL("SELECT a FROM t LIMIT 0", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 0 {
		t.Errorf("LIMIT 0 = %d", q.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := ParseSQL("SELECT * FROM t WHERE a > 1 LIMIT 2", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != testSch.NumColumns() {
		t.Fatalf("items = %d, want %d", len(q.Items), testSch.NumColumns())
	}
	for i, it := range q.Items {
		if it.Expr.String() != testSch.Column(i).Name {
			t.Errorf("item %d = %q", i, it.Expr.String())
		}
	}
	// Mixed star and expression.
	q2, err := ParseSQL("SELECT *, a+b AS total FROM t LIMIT 1", testSch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Items) != testSch.NumColumns()+1 {
		t.Errorf("mixed items = %d", len(q2.Items))
	}
	// Star with aggregates fails validation (bare columns not grouped).
	if _, err := ParseSQL("SELECT *, COUNT(*) FROM t", testSch); err == nil {
		t.Error("star with aggregate should fail validation")
	}
}

func TestParseFloatLiteral(t *testing.T) {
	q, err := ParseSQL("SELECT COUNT(*) FROM t WHERE f >= 1.25", testSch)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Where.(*Cmp)
	if c.R.(*Const).Float != 1.25 {
		t.Errorf("float literal = %v", c.R.(*Const).Float)
	}
}

// TestParseNestingBounded: parentheses, NOT and unary minus nest at most
// maxNesting deep. Past that a 1 MiB request of nothing but nesting fails at
// once: the parser lexes on demand, so the failure costs the tokens up to the
// bound, not a token and a recursion per level — unbounded, SUM((((…c0…))))
// at that size took seconds and about a gigabyte of goroutine stack. At the
// bound, nesting still parses.
func TestParseNestingBounded(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64})
	const size = 1 << 20
	parens := size / 2
	cases := []struct{ name, sql string }{
		{"parentheses", "SELECT SUM(" + strings.Repeat("(", parens) + "c0" + strings.Repeat(")", parens) + ") FROM t"},
		{"NOT", "SELECT COUNT(*) FROM t WHERE " + strings.Repeat("NOT ", size/4) + "c0 < 1"},
		{"unary minus", "SELECT SUM(" + strings.Repeat("- ", size/2) + "c0) FROM t"},
	}
	for _, c := range cases {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSQL(c.sql, sch)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("%s: %d bytes of nesting parsed: %v", c.name, len(c.sql), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: %d bytes allocated for %d bytes of SQL", c.name, alloc, len(c.sql))
		}
		if grown := int64(after.StackSys) - int64(before.StackSys); grown > 4<<20 {
			t.Errorf("%s: goroutine stacks grew by %d bytes", c.name, grown)
		}
	}
	at := strings.Repeat("(", maxNesting) + "c0" + strings.Repeat(")", maxNesting)
	for _, sql := range []string{
		"SELECT SUM(" + at + ") FROM t",
		"SELECT COUNT(*) FROM t WHERE " + strings.Repeat("NOT ", maxNesting) + "c0 < 1",
		"SELECT SUM(" + strings.Repeat("- ", maxNesting) + "c0) FROM t",
	} {
		if _, err := ParseSQL(sql, sch); err != nil {
			t.Errorf("nesting at the bound: %v", err)
		}
	}
	if _, err := ParseSQL("SELECT SUM(("+at+")) FROM t", sch); err == nil {
		t.Error("one level past the bound parsed")
	}
	// A lexical error after the bound still wins, as when the text was
	// lexed whole before parsing.
	if _, err := ParseSQL("SELECT SUM(("+at+" ! 1)) FROM t", sch); err == nil || !strings.Contains(err.Error(), "unexpected '!'") {
		t.Errorf("nesting past the bound before a lexical error: %v", err)
	}
}

// TestLongConnectiveChainLinear: naming a select item renders it into one
// builder, so an AND or OR chain of 100,000 comparisons — a 1 MiB request —
// is named in time and memory linear in its length, like the + chains of
// TestLongSumChainLinear. A quadratic rendering is tens of GB at that
// length, so a short chain is held to the same per-term ceiling first. The
// chains are loops in the parser, not nesting, so they parse.
func TestLongConnectiveChainLinear(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64})
	for _, op := range []string{"AND", "OR"} {
		for _, terms := range []int{2_000, 100_000} {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sql := "SELECT " + strings.Repeat("c0 < 1 "+op+" ", terms-1) + "c0 < 1 FROM t"
			q, err := ParseSQL(sql, sch)
			if err != nil {
				t.Fatalf("%s %d: %v", op, terms, err)
			}
			name := q.ColumnNames()[0]
			runtime.ReadMemStats(&after)
			if want := terms*len("(c0 < 1)") + (terms-1)*len("(  )"+op); len(name) != want {
				t.Fatalf("%s %d: name of %d bytes, want %d", op, terms, len(name), want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(terms)<<11 {
				t.Fatalf("%s %d: %d bytes allocated a term, want at most 2 KB", op, terms, alloc/uint64(terms))
			}
		}
	}
}
