package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"scanraw/internal/chunk"
)

func mustQuery(t *testing.T, sql string) *Query {
	t.Helper()
	q, err := ParseSQL(sql, testSch)
	if err != nil {
		t.Fatalf("ParseSQL(%q): %v", sql, err)
	}
	return q
}

func runQuery(t *testing.T, sql string, chunks ...*chunk.BinaryChunk) *Result {
	t.Helper()
	q := mustQuery(t, sql)
	ex, err := NewExecutor(q, testSch)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range chunks {
		if err := ex.Consume(bc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ex.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A COUNT of a bare column reads no value, so a chunk without that column
// answers it, scalar or grouped, as the whole chunk does. COUNT of any other
// expression still evaluates it.
func TestCountReadsNoValue(t *testing.T) {
	full := testChunk(t)
	noS := chunk.NewBinary(testSch, 0, full.Rows)
	for _, c := range []int{0, 1, 2} {
		if err := noS.SetColumn(c, full.Column(c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT COUNT(s) FROM t WHERE a >= 2",
		"SELECT COUNT(s), COUNT(*), SUM(b) FROM t",
		"SELECT a % 2, COUNT(s) FROM t GROUP BY a % 2",
	} {
		if got, want := runQuery(t, sql, noS), runQuery(t, sql, full); fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: without s %v, with it %v", sql, got.Rows, want.Rows)
		}
		if q := mustQuery(t, sql); slices.Contains(q.ReadColumns(), 3) || !slices.Contains(q.RequiredColumns(), 3) {
			t.Errorf("%s: ReadColumns %v, RequiredColumns %v", sql, q.ReadColumns(), q.RequiredColumns())
		}
	}
	ex, err := NewExecutor(mustQuery(t, "SELECT COUNT(s = 'x') FROM t"), testSch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Consume(noS); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Errorf("COUNT(s = 'x') without s: err %v, want the column absent", err)
	}
}

func TestScalarSum(t *testing.T) {
	res := runQuery(t, "SELECT SUM(a+b) AS total FROM t", testChunk(t))
	if len(res.Rows) != 1 || res.Cols[0] != "total" {
		t.Fatalf("res = %+v", res)
	}
	// (1+10)+(2+20)+(3+30)+(4+40) = 110
	if got := res.Rows[0][0].Int; got != 110 {
		t.Errorf("SUM = %d, want 110", got)
	}
}

func TestScalarSumMultipleChunks(t *testing.T) {
	res := runQuery(t, "SELECT SUM(a) FROM t", testChunk(t), testChunk(t))
	if got := res.Rows[0][0].Int; got != 20 {
		t.Errorf("SUM over 2 chunks = %d, want 20", got)
	}
}

func TestCountStarAndWhere(t *testing.T) {
	res := runQuery(t, "SELECT COUNT(*) FROM t WHERE a >= 3", testChunk(t))
	if got := res.Rows[0][0].Int; got != 2 {
		t.Errorf("COUNT = %d, want 2", got)
	}
}

func TestCountExpression(t *testing.T) {
	// COUNT(expr) counts qualifying rows (there are no NULLs in this
	// engine, so it equals COUNT(*) under the same predicate).
	res := runQuery(t, "SELECT COUNT(a), COUNT(*) FROM t WHERE b >= 20", testChunk(t))
	if res.Rows[0][0].Int != 3 || res.Rows[0][1].Int != 3 {
		t.Errorf("counts = %v", res.Rows[0])
	}
}

func TestAggregatesWithNegatives(t *testing.T) {
	bc := testChunk(t)
	bc.Column(0).Ints[0] = -100
	res := runQuery(t, "SELECT MIN(a), MAX(a), SUM(a) FROM t", bc)
	r := res.Rows[0]
	if r[0].Int != -100 || r[1].Int != 4 || r[2].Int != -100+2+3+4 {
		t.Errorf("negative aggregates = %v", r)
	}
}

func TestMinMaxAvg(t *testing.T) {
	res := runQuery(t, "SELECT MIN(b), MAX(b), AVG(a) FROM t", testChunk(t))
	r := res.Rows[0]
	if r[0].Int != 10 || r[1].Int != 40 {
		t.Errorf("MIN/MAX = %v/%v", r[0], r[1])
	}
	if r[2].Float != 2.5 {
		t.Errorf("AVG = %v, want 2.5", r[2])
	}
}

func TestFloatAggregates(t *testing.T) {
	res := runQuery(t, "SELECT SUM(f), MIN(f), MAX(f) FROM t", testChunk(t))
	r := res.Rows[0]
	if r[0].Float != 8 || r[1].Float != 0.5 || r[2].Float != 3.5 {
		t.Errorf("float aggs = %v", r)
	}
}

func TestStringMinMax(t *testing.T) {
	res := runQuery(t, "SELECT MIN(s), MAX(s) FROM t", testChunk(t))
	r := res.Rows[0]
	if r[0].Str != "x" || r[1].Str != "zzz" {
		t.Errorf("string min/max = %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	// s values: x yy zzz yy → groups x(1), yy(2), zzz(1)
	res := runQuery(t, "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s", testChunk(t))
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// Rows sorted by key: x, yy, zzz.
	byKey := map[string][]Value{}
	for _, r := range res.Rows {
		byKey[r[0].Str] = r
	}
	if byKey["yy"][1].Int != 2 || byKey["yy"][2].Int != 2+4 {
		t.Errorf("group yy = %v", byKey["yy"])
	}
	if byKey["x"][1].Int != 1 || byKey["zzz"][2].Int != 3 {
		t.Errorf("groups = %v", byKey)
	}
}

func TestGroupByWithWhere(t *testing.T) {
	res := runQuery(t, "SELECT s, COUNT(*) FROM t WHERE a > 1 GROUP BY s", testChunk(t))
	byKey := map[string]int64{}
	for _, r := range res.Rows {
		byKey[r[0].Str] = r[1].Int
	}
	if byKey["x"] != 0 || byKey["yy"] != 2 || byKey["zzz"] != 1 {
		t.Errorf("filtered groups = %v", byKey)
	}
}

func TestEmptyScalarAggregate(t *testing.T) {
	res := runQuery(t, "SELECT SUM(a), COUNT(*), AVG(a) FROM t WHERE a > 100", testChunk(t))
	r := res.Rows[0]
	if r[0].Int != 0 || r[1].Int != 0 {
		t.Errorf("empty aggregate = %v", r)
	}
	if !math.IsNaN(r[2].Float) {
		t.Errorf("AVG over empty should be NaN, got %v", r[2].Float)
	}
}

func TestEmptyGroupByProducesNoRows(t *testing.T) {
	res := runQuery(t, "SELECT s, COUNT(*) FROM t WHERE a > 100 GROUP BY s", testChunk(t))
	if len(res.Rows) != 0 {
		t.Errorf("empty group-by should produce 0 rows, got %d", len(res.Rows))
	}
}

func TestNonAggregateProjection(t *testing.T) {
	res := runQuery(t, "SELECT a, a*b FROM t WHERE s LIKE 'y%'", testChunk(t))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0].Int != 2 || res.Rows[0][1].Int != 40 {
		t.Errorf("row0 = %v", res.Rows[0])
	}
	if res.Rows[1][0].Int != 4 || res.Rows[1][1].Int != 160 {
		t.Errorf("row1 = %v", res.Rows[1])
	}
}

func TestLimit(t *testing.T) {
	res := runQuery(t, "SELECT a FROM t LIMIT 3", testChunk(t), testChunk(t))
	if len(res.Rows) != 3 {
		t.Errorf("LIMIT 3 returned %d rows", len(res.Rows))
	}
}

func TestLimitGroupBy(t *testing.T) {
	res := runQuery(t, "SELECT s, COUNT(*) FROM t GROUP BY s LIMIT 2", testChunk(t))
	if len(res.Rows) != 2 {
		t.Errorf("grouped LIMIT 2 returned %d rows", len(res.Rows))
	}
}

func TestConsumeAfterResult(t *testing.T) {
	q := mustQuery(t, "SELECT SUM(a) FROM t")
	ex, err := NewExecutor(q, testSch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Result(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Consume(testChunk(t)); err == nil {
		t.Error("Consume after Result should fail")
	}
}

func TestValidateErrors(t *testing.T) {
	// Non-grouped bare column alongside aggregate.
	q := &Query{
		Items: []SelectItem{
			{Expr: col(t, "a")},
			{Agg: AggSum, Expr: col(t, "b")},
		},
		From: "t",
	}
	if err := q.Validate(); err == nil {
		t.Error("bare column with aggregate should fail validation")
	}
	// SUM over string.
	q2 := &Query{
		Items: []SelectItem{{Agg: AggSum, Expr: col(t, "s")}},
		From:  "t",
	}
	if err := q2.Validate(); err == nil {
		t.Error("SUM over string should fail")
	}
	// Empty select.
	if err := (&Query{From: "t"}).Validate(); err == nil {
		t.Error("empty select should fail")
	}
	// Non-boolean WHERE.
	q3 := &Query{
		Items: []SelectItem{{Agg: AggCount}},
		From:  "t",
		Where: ConstStr("x"),
	}
	if err := q3.Validate(); err == nil {
		t.Error("non-boolean WHERE should fail")
	}
	// MIN(*) is invalid.
	q4 := &Query{
		Items: []SelectItem{{Agg: AggMin}},
		From:  "t",
	}
	if err := q4.Validate(); err == nil {
		t.Error("MIN(*) should fail")
	}
}

func TestRequiredColumns(t *testing.T) {
	q := mustQuery(t, "SELECT SUM(b) FROM t WHERE a < 10 GROUP BY s")
	got := q.RequiredColumns()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("RequiredColumns = %v, want [0 1 3]", got)
	}
}

func TestResultString(t *testing.T) {
	res := runQuery(t, "SELECT s, COUNT(*) AS n FROM t GROUP BY s", testChunk(t))
	out := res.String()
	for _, want := range []string{"s", "n", "yy", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String() missing %q:\n%s", want, out)
		}
	}
}

func TestSumAllColumns(t *testing.T) {
	q, err := SumAllColumns(testSch, "t", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(q, testSch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Consume(testChunk(t)); err != nil {
		t.Fatal(err)
	}
	res, _ := ex.Result()
	if res.Rows[0][0].Int != 110 {
		t.Errorf("SumAllColumns = %d, want 110", res.Rows[0][0].Int)
	}
	if _, err := SumAllColumns(testSch, "t", nil); err == nil {
		t.Error("empty columns should fail")
	}
	if _, err := SumAllColumns(testSch, "t", []int{99}); err == nil {
		t.Error("out-of-range ordinal should fail")
	}
}
