package engine

import (
	"testing"

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
