package scanraw

import (
	"os"
	"strings"
	"testing"
)

const demoCSV = "1,10,alpha\n2,20,beta\n3,30,alpha\n4,40,gamma\n5,50,alpha\n"

func stageDemo(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	if err := db.Stage("demo", "id:int, amount:int, tag:string", CSV, []byte(demoCSV)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenStageExec(t *testing.T) {
	db := stageDemo(t, Options{})
	res, st, err := db.Exec("SELECT SUM(amount) AS total FROM demo")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 150 {
		t.Errorf("total = %d, want 150", res.Rows[0][0].Int)
	}
	if st.Delivered() == 0 {
		t.Error("no chunks delivered")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "demo" {
		t.Errorf("Tables = %v", got)
	}
}

func TestExecGroupBy(t *testing.T) {
	db := stageDemo(t, Options{})
	res, _, err := db.Exec("SELECT tag, COUNT(*) AS n, SUM(amount) FROM demo GROUP BY tag")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	out := res.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "90") {
		t.Errorf("result table:\n%s", out)
	}
}

func TestStageErrors(t *testing.T) {
	db := Open(Options{})
	if err := db.Stage("t", "bad schema", CSV, nil); err == nil {
		t.Error("bad schema spec should fail")
	}
	if err := db.Stage("t", "a:int", CSV, []byte("1\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.Stage("t", "a:int", CSV, []byte("1\n")); err == nil {
		t.Error("duplicate staging should fail")
	}
}

func TestExecErrors(t *testing.T) {
	db := stageDemo(t, Options{})
	if _, _, err := db.Exec("SELECT 1"); err == nil {
		t.Error("missing FROM should fail")
	}
	if _, _, err := db.Exec("SELECT id FROM missing LIMIT 1"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err := db.Exec("SELECT nope FROM demo LIMIT 1"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSpeculativeLoadingThroughFacade(t *testing.T) {
	var rows strings.Builder
	for i := 0; i < 4096; i++ {
		rows.WriteString("1,2,3\n")
	}
	db := Open(Options{ChunkLines: 512, CacheChunks: 2, Policy: Speculative})
	if err := db.Stage("wide", "a:int,b:int,c:int", CSV, []byte(rows.String())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("SELECT SUM(a+b+c) FROM wide"); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	loaded1, total, err := db.LoadedChunks("wide", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("total chunks = %d", total)
	}
	if loaded1 == 0 {
		t.Error("safeguard should have loaded at least the cached chunks")
	}
	// Keep querying until fully loaded; progress must be monotone.
	prev := loaded1
	for q := 0; q < 8 && prev < total; q++ {
		if _, _, err := db.Exec("SELECT SUM(a+b+c) FROM wide"); err != nil {
			t.Fatal(err)
		}
		db.WaitIdle()
		cur, _, _ := db.LoadedChunks("wide", []string{"a", "b", "c"})
		if cur < prev {
			t.Fatalf("loaded regressed %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev != total {
		t.Errorf("never fully loaded: %d/%d", prev, total)
	}
	if n := db.Sweep(); n != 1 {
		t.Errorf("Sweep removed %d operators, want 1", n)
	}
}

func TestTSVFormat(t *testing.T) {
	db := Open(Options{})
	if err := db.Stage("tabs", "a:int,b:string", TSV, []byte("1\tx\n2\ty\n")); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Exec("SELECT SUM(a) FROM tabs")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 3 {
		t.Errorf("sum = %d", res.Rows[0][0].Int)
	}
}

func TestSequentialWorkers(t *testing.T) {
	db := Open(Options{Workers: -1}) // sequential mode
	if err := db.Stage("s", "a:int", CSV, []byte("5\n6\n")); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Exec("SELECT SUM(a) FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 11 {
		t.Errorf("sum = %d", res.Rows[0][0].Int)
	}
}

func TestLoadedChunksErrors(t *testing.T) {
	db := stageDemo(t, Options{})
	if _, _, err := db.LoadedChunks("missing", nil); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err := db.LoadedChunks("demo", []string{"nope"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, total, err := db.LoadedChunks("demo", nil); err != nil || total != 0 {
		t.Errorf("before first scan: total=%d err=%v", total, err)
	}
}

func TestEstimateRange(t *testing.T) {
	db := stageDemo(t, Options{})
	// Before any query: catalog covers no rows.
	est, total, err := db.EstimateRange("demo", "amount", 0, 100)
	if err != nil || est != 0 || total != 0 {
		t.Errorf("pre-query estimate = %v/%v, %v", est, total, err)
	}
	if _, _, err := db.Exec("SELECT SUM(amount) FROM demo"); err != nil {
		t.Fatal(err)
	}
	est, total, err = db.EstimateRange("demo", "amount", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("total = %v, want 5", total)
	}
	// amount values are 10..50; [0,100] covers everything.
	if est != 5 {
		t.Errorf("full-range estimate = %v, want 5", est)
	}
	if _, _, err := db.EstimateRange("missing", "amount", 0, 1); err == nil {
		t.Error("unknown table should fail")
	}
	if _, _, err := db.EstimateRange("demo", "nope", 0, 1); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSelectStarThroughFacade(t *testing.T) {
	db := stageDemo(t, Options{})
	res, _, err := db.Exec("SELECT * FROM demo ORDER BY amount DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Cols) != 3 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.Cols))
	}
	if res.Rows[0][1].Int != 50 || res.Rows[1][1].Int != 40 {
		t.Errorf("top amounts = %v, %v", res.Rows[0][1], res.Rows[1][1])
	}
}

func TestStageFile(t *testing.T) {
	path := t.TempDir() + "/data.csv"
	if err := os.WriteFile(path, []byte("1,x\n2,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{})
	if err := db.StageFile("t", "a:int,b:string", CSV, path); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Exec("SELECT SUM(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 3 {
		t.Errorf("sum = %d", res.Rows[0][0].Int)
	}
	if err := db.StageFile("u", "a:int", CSV, path+"-missing"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestParseSchemaSpec(t *testing.T) {
	sch, err := ParseSchema("a:int, b:float, c:string")
	if err != nil {
		t.Fatal(err)
	}
	if sch.NumColumns() != 3 {
		t.Errorf("cols = %d", sch.NumColumns())
	}
	for _, bad := range []string{"", "a", "a:blob", ":int"} {
		if _, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) should fail", bad)
		}
	}
}
