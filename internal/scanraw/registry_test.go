package scanraw

import (
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

func TestRegistryReusesOperators(t *testing.T) {
	env := newEnv(t, 128, 2, nil)
	reg := NewRegistry(env.store)
	cfg := Config{Workers: 2, ChunkLines: 32}
	op1 := reg.Operator(env.table, cfg)
	op2 := reg.Operator(env.table, Config{Workers: 7}) // ignored: instance exists
	if op1 != op2 {
		t.Error("registry should reuse the operator for the same raw file")
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
	got, ok := reg.Lookup(env.table.RawFile())
	if !ok || got != op1 {
		t.Error("Lookup failed")
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Error("Lookup of unknown file should fail")
	}
}

func TestRegistrySweepDeletesFullyLoaded(t *testing.T) {
	env := newEnv(t, 128, 2, nil)
	reg := NewRegistry(env.store)
	op := reg.Operator(env.table, Config{Workers: 2, ChunkLines: 32, Policy: FullLoad})
	if n := reg.Sweep(); n != 0 {
		t.Errorf("sweep before loading removed %d", n)
	}
	if _, _, err := reg.ExecuteSQL(env.table, Config{}, "SELECT SUM(c0+c1) FROM data"); err != nil {
		t.Fatal(err)
	}
	if !env.table.FullyLoaded() {
		t.Fatal("table should be fully loaded")
	}
	if n := reg.Sweep(); n != 1 {
		t.Errorf("sweep removed %d operators, want 1", n)
	}
	if reg.Len() != 0 {
		t.Errorf("registry still holds %d operators", reg.Len())
	}
	_ = op
}

func TestExecuteSQLEndToEnd(t *testing.T) {
	env := newEnv(t, 256, 3, nil)
	reg := NewRegistry(env.store)
	cfg := Config{Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true, CacheChunks: 2}
	res, st, err := reg.ExecuteSQL(env.table, cfg, "SELECT SUM(c0+c1+c2) AS total FROM data")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "total" {
		t.Errorf("cols = %v", res.Cols)
	}
	if got, want := res.Rows[0][0].Int, wantSum(env); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	if st.Delivered() != 4 {
		t.Errorf("delivered = %d", st.Delivered())
	}
	// Parse error propagates.
	if _, _, err := reg.ExecuteSQL(env.table, cfg, "SELECT nope FROM data"); err == nil {
		t.Error("bad SQL should fail")
	}
}

func mkMeta(loCol0, hiCol0 int64) *dbstore.ChunkMeta {
	return &dbstore.ChunkMeta{
		Stats: []dbstore.ColStats{
			{Valid: true, MinInt: loCol0, MaxInt: hiCol0},
			{},
		},
		Loaded: []bool{false, false},
	}
}

func TestSkipFromPredicate(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "a", Type: schema.Int64},
		schema.Column{Name: "b", Type: schema.Str},
	)
	parseWhere := func(sql string) engine.Expr {
		q, err := engine.ParseSQL(sql, sch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return q.Where
	}
	cases := []struct {
		sql        string
		lo, hi     int64 // chunk stats for column a
		wantSkip   bool
		wantFilter bool // whether a filter is derivable at all
	}{
		{"SELECT COUNT(*) FROM t WHERE a < 10", 20, 30, true, true},
		{"SELECT COUNT(*) FROM t WHERE a < 10", 5, 30, false, true},
		{"SELECT COUNT(*) FROM t WHERE a <= 20", 21, 30, true, true},
		{"SELECT COUNT(*) FROM t WHERE a > 30", 20, 30, true, true},
		{"SELECT COUNT(*) FROM t WHERE a >= 30", 20, 30, false, true},
		{"SELECT COUNT(*) FROM t WHERE a = 25", 20, 30, false, true},
		{"SELECT COUNT(*) FROM t WHERE a = 31", 20, 30, true, true},
		{"SELECT COUNT(*) FROM t WHERE 10 > a", 20, 30, true, true},  // flipped
		{"SELECT COUNT(*) FROM t WHERE 25 = a", 20, 30, false, true}, // flipped
		{"SELECT COUNT(*) FROM t WHERE a < 10 AND a > 5", 6, 8, false, true},
		{"SELECT COUNT(*) FROM t WHERE a < 10 AND b = 'x'", 20, 30, true, true},
		{"SELECT COUNT(*) FROM t WHERE a < 10 OR a > 100", 20, 30, false, false}, // OR unanalyzable
		{"SELECT COUNT(*) FROM t WHERE b LIKE 'x%'", 0, 0, false, false},
		{"SELECT COUNT(*) FROM t WHERE a <> 5", 20, 30, false, false},
		{"SELECT COUNT(*) FROM t WHERE a + 1 < 10", 20, 30, false, false}, // not a bare column
	}
	for _, c := range cases {
		f := SkipFromPredicate(parseWhere(c.sql))
		if (f != nil) != c.wantFilter {
			t.Errorf("%s: filter derivable = %v, want %v", c.sql, f != nil, c.wantFilter)
			continue
		}
		if f == nil {
			continue
		}
		if got := f(mkMeta(c.lo, c.hi)); got != c.wantSkip {
			t.Errorf("%s with stats [%d,%d]: skip = %v, want %v", c.sql, c.lo, c.hi, got, c.wantSkip)
		}
	}
	if SkipFromPredicate(nil) != nil {
		t.Error("nil predicate should yield nil filter")
	}
}

func TestSkipInvalidStatsConservative(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "a", Type: schema.Int64})
	q, err := engine.ParseSQL("SELECT COUNT(*) FROM t WHERE a < 0", sch)
	if err != nil {
		t.Fatal(err)
	}
	f := SkipFromPredicate(q.Where)
	meta := &dbstore.ChunkMeta{Stats: []dbstore.ColStats{{}}, Loaded: []bool{false}}
	if f(meta) {
		t.Error("chunk without stats must never be skipped")
	}
}
