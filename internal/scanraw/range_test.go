package scanraw

import (
	"context"
	"fmt"
	"testing"

	"scanraw/internal/engine"
)

func TestChunkRangeContains(t *testing.T) {
	var nilRange *ChunkRange
	if !nilRange.Contains(0) || !nilRange.Contains(1<<20) {
		t.Fatal("nil range must contain every chunk")
	}
	r := &ChunkRange{Lo: 2, Hi: 5}
	for id, want := range map[int]bool{0: false, 1: false, 2: true, 4: true, 5: false, 9: false} {
		if r.Contains(id) != want {
			t.Errorf("[2,5).Contains(%d) = %v, want %v", id, r.Contains(id), want)
		}
	}
	open := &ChunkRange{Lo: 3}
	if open.Contains(2) || !open.Contains(3) || !open.Contains(1<<20) {
		t.Fatal("[3,∞) containment wrong")
	}
}

func TestValidateRequestRange(t *testing.T) {
	base := Request{Columns: []int{0}, Deliver: func(*BinaryChunk) error { return nil }}
	bad := base
	bad.Range = &ChunkRange{Lo: -1}
	if err := validateRequest(bad, 4); err == nil {
		t.Error("negative lower bound accepted")
	}
	bad = base
	bad.Range = &ChunkRange{Lo: 3, Hi: 3}
	if err := validateRequest(bad, 4); err == nil {
		t.Error("empty range accepted")
	}
	good := base
	good.Range = &ChunkRange{Lo: 3, Hi: 0} // unbounded above
	if err := validateRequest(good, 4); err != nil {
		t.Errorf("open range rejected: %v", err)
	}
}

func TestEnclosingRange(t *testing.T) {
	rng := func(lo, hi int) *ChunkRange { return &ChunkRange{Lo: lo, Hi: hi} }
	cases := []struct {
		in   []*ChunkRange
		want *ChunkRange
	}{
		{[]*ChunkRange{rng(0, 4), rng(4, 8)}, rng(0, 8)},
		{[]*ChunkRange{rng(2, 4), nil}, nil},
		{[]*ChunkRange{rng(5, 0), rng(1, 3)}, rng(1, 0)},
		{[]*ChunkRange{rng(3, 7)}, rng(3, 7)},
	}
	for i, c := range cases {
		reqs := make([]Request, len(c.in))
		for j, r := range c.in {
			reqs[j] = Request{Range: r}
		}
		got := enclosingRange(reqs)
		switch {
		case got == nil && c.want == nil:
		case got == nil || c.want == nil || *got != *c.want:
			t.Errorf("case %d: enclosingRange = %v, want %v", i, got, c.want)
		}
	}
}

// rangeSQL runs sql over one chunk range of a fresh operator.
func rangeSQL(t *testing.T, env *testEnv, cfg Config, sql string, rng *ChunkRange) (*engine.Result, RunStats) {
	t.Helper()
	op := New(env.store, env.table, cfg)
	q, err := engine.ParseSQL(sql, env.table.Schema())
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, st, err := ExecuteQueryRangeContext(context.Background(), op, q, rng)
	if err != nil {
		t.Fatalf("%s over %v: %v", sql, rng, err)
	}
	return res, st
}

// TestRangePartitionSums splits the chunk universe at every boundary and
// checks that the two halves' SUMs add up to the whole-file SUM — the
// invariant distributed scatter-gather relies on: ranges partition rows.
func TestRangePartitionSums(t *testing.T) {
	env := newEnv(t, 800, 3, nil)
	cfg := Config{Workers: 2, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables}
	full, _ := rangeSQL(t, env, cfg, "SELECT SUM(c0), COUNT(*) FROM data", nil)
	total, count := full.Rows[0][0].Int, full.Rows[0][1].Int
	if count != 800 {
		t.Fatalf("COUNT(*) = %d, want 800", count)
	}
	nchunks := (800 + 63) / 64
	for cut := 1; cut < nchunks; cut++ {
		lo, _ := rangeSQL(t, env, cfg, "SELECT SUM(c0), COUNT(*) FROM data", &ChunkRange{Lo: 0, Hi: cut})
		hi, _ := rangeSQL(t, env, cfg, "SELECT SUM(c0), COUNT(*) FROM data", &ChunkRange{Lo: cut})
		if got := lo.Rows[0][0].Int + hi.Rows[0][0].Int; got != total {
			t.Errorf("cut %d: SUM halves %d + %d != %d", cut, lo.Rows[0][0].Int, hi.Rows[0][0].Int, total)
		}
		if got := lo.Rows[0][1].Int + hi.Rows[0][1].Int; got != count {
			t.Errorf("cut %d: COUNT halves sum to %d, want %d", cut, got, count)
		}
	}
}

// TestRangePartitionRows checks row-level partitioning for a selection:
// concatenating the two halves' rows in range order reproduces the full
// scan's canonical row order byte for byte.
func TestRangePartitionRows(t *testing.T) {
	env := newEnv(t, 500, 3, nil)
	cfg := Config{Workers: 2, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables}
	sql := "SELECT c0, c1 FROM data WHERE c0 > 250"
	full, _ := rangeSQL(t, env, cfg, sql, nil)
	lo, _ := rangeSQL(t, env, cfg, sql, &ChunkRange{Lo: 0, Hi: 4})
	hi, _ := rangeSQL(t, env, cfg, sql, &ChunkRange{Lo: 4})
	cat := append(append([][]engine.Value{}, lo.Rows...), hi.Rows...)
	if len(cat) != len(full.Rows) {
		t.Fatalf("row counts: %d + %d != %d", len(lo.Rows), len(hi.Rows), len(full.Rows))
	}
	for i := range cat {
		if fmt.Sprint(cat[i]) != fmt.Sprint(full.Rows[i]) {
			t.Fatalf("row %d: %v != %v", i, cat[i], full.Rows[i])
		}
	}
}

// TestRangeUpperBoundSavesChunks: a bounded range never reads past Hi, so
// the run reports the chunks past the bound as saved work... rather, the
// delivered count stays within the range width.
func TestRangeUpperBoundStopsScan(t *testing.T) {
	env := newEnv(t, 640, 3, nil) // 10 chunks of 64 lines
	cfg := Config{Workers: 2, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables}
	_, st := rangeSQL(t, env, cfg, "SELECT SUM(c0) FROM data", &ChunkRange{Lo: 2, Hi: 5})
	if got := st.Delivered(); got != 3 {
		t.Fatalf("delivered %d chunks for a width-3 range", got)
	}
	// A second operator over the same table already knows the chunk
	// geometry discovered above; the range scan must still deliver only
	// the in-range chunks from cache/db/raw.
	_, st2 := rangeSQL(t, env, cfg, "SELECT SUM(c1) FROM data", &ChunkRange{Lo: 2, Hi: 5})
	if got := st2.Delivered(); got != 3 {
		t.Fatalf("second pass delivered %d chunks, want 3", got)
	}
}

// TestRangeLimitDemand: a LIMIT query whose range starts past chunk 0 must
// still terminate early — the demand frontier is seeded at the range's
// lower bound, not at zero.
// The table is discovered first and the buffers hold one chunk each, which
// forces the outcome under every schedule (see discoverTable).
func TestRangeLimitDemand(t *testing.T) {
	env := newEnv(t, 1280, 3, nil) // 20 chunks of 64 lines
	discoverTable(t, env, 64)
	cfg := Config{Workers: 2, ChunkLines: 64, Policy: ExternalTables,
		TextBufferChunks: 2, CacheChunks: 1}
	res, st := rangeSQL(t, env, cfg, "SELECT c0 FROM data LIMIT 5", &ChunkRange{Lo: 10})
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	if !st.TerminatedEarly {
		t.Fatal("range-restricted LIMIT scan did not terminate early")
	}
	if st.ChunksSaved <= 0 {
		t.Fatalf("ChunksSaved = %d, want > 0", st.ChunksSaved)
	}
	// The rows must come from the range, i.e. equal the first five rows of
	// a plain scan over [10, ∞).
	ref, _ := rangeSQL(t, env, cfg, "SELECT c0 FROM data", &ChunkRange{Lo: 10})
	for i := range res.Rows {
		if res.Rows[i][0].Int != ref.Rows[i][0].Int {
			t.Fatalf("row %d: %d != reference %d", i, res.Rows[i][0].Int, ref.Rows[i][0].Int)
		}
	}
}

// TestRangeSharedScan: members with disjoint ranges sharing one scan each
// see exactly their own chunks.
func TestRangeSharedScan(t *testing.T) {
	env := newEnv(t, 640, 3, nil) // 10 chunks
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables})
	sch := env.table.Schema()
	mk := func(sql string) *engine.Query {
		q, err := engine.ParseSQL(sql, sch)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa, qb := mk("SELECT SUM(c0) FROM data"), mk("SELECT SUM(c0) FROM data")
	exA, errA := engine.NewExecutor(qa, sch)
	exB, errB := engine.NewExecutor(qb, sch)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	reqs := []Request{
		{Columns: qa.RequiredColumns(), Range: &ChunkRange{Lo: 0, Hi: 5}, Deliver: exA.Consume},
		{Columns: qb.RequiredColumns(), Range: &ChunkRange{Lo: 5}, Deliver: exB.Consume},
	}
	_, per, err := op.RunSharedContext(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if per[0].DeliveredChunks != 5 || per[1].DeliveredChunks != 5 {
		t.Fatalf("per-member delivery %d/%d, want 5/5", per[0].DeliveredChunks, per[1].DeliveredChunks)
	}
	ra, errA := exA.Result()
	rb, errB := exB.Result()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	full, _ := rangeSQL(t, env, Config{Workers: 2, ChunkLines: 64, CacheChunks: 8, Policy: ExternalTables},
		"SELECT SUM(c0) FROM data", nil)
	if ra.Rows[0][0].Int+rb.Rows[0][0].Int != full.Rows[0][0].Int {
		t.Fatalf("shared range halves %d + %d != %d", ra.Rows[0][0].Int, rb.Rows[0][0].Int, full.Rows[0][0].Int)
	}
}
