package scanraw

import (
	"errors"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
)

func TestRunSharedTwoQueriesOneScan(t *testing.T) {
	env := newEnv(t, 512, 4, nil)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 2})
	var sumA, sumB int64
	reqs := []Request{
		{
			Columns: []int{0, 1},
			Deliver: func(bc *BinaryChunk) error {
				for r := 0; r < bc.Rows; r++ {
					sumA += bc.Column(0).IntAt(r) + bc.Column(1).IntAt(r)
				}
				return nil
			},
		},
		{
			Columns: []int{2},
			Deliver: func(bc *BinaryChunk) error {
				for r := 0; r < bc.Rows; r++ {
					sumB += bc.Column(2).IntAt(r)
				}
				return nil
			},
		},
	}
	st, per, err := op.RunShared(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sumA, gen.SumRange(env.spec, []int{0, 1}, 0, 512); got != want {
		t.Errorf("query A sum = %d, want %d", got, want)
	}
	if got, want := sumB, gen.SumRange(env.spec, []int{2}, 0, 512); got != want {
		t.Errorf("query B sum = %d, want %d", got, want)
	}
	// One scan: 8 chunks total, delivered once each at the scan level.
	if st.Delivered() != 8 {
		t.Errorf("scan delivered %d chunks, want 8", st.Delivered())
	}
	for i, p := range per {
		if p.DeliveredChunks != 8 {
			t.Errorf("request %d saw %d chunks", i, p.DeliveredChunks)
		}
	}
}

func TestRunSharedPerRequestSkip(t *testing.T) {
	env := newEnv(t, 512, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, CacheChunks: 2, CollectStats: true,
	})
	// Warm-up scan to collect statistics.
	if _, err := op.Run(Request{
		Columns: []int{0, 1},
		Deliver: func(*BinaryChunk) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	count := 0
	all := 0
	reqs := []Request{
		{
			Columns: []int{0},
			// Impossible predicate: skips every chunk for this request.
			Skip:    func(meta *dbstore.ChunkMeta) bool { return !meta.Stats[0].MayContainInt(-10, -1) },
			Deliver: func(bc *BinaryChunk) error { count += bc.Rows; return nil },
		},
		{
			Columns: []int{0},
			Deliver: func(bc *BinaryChunk) error { all += bc.Rows; return nil },
		},
	}
	_, per, err := op.RunShared(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 || per[0].SkippedChunks != 8 {
		t.Errorf("filtered request: rows=%d skipped=%d", count, per[0].SkippedChunks)
	}
	if all != 512 || per[1].DeliveredChunks != 8 {
		t.Errorf("unfiltered request: rows=%d delivered=%d", all, per[1].DeliveredChunks)
	}
}

func TestRunSharedScanLevelSkip(t *testing.T) {
	env := newEnv(t, 256, 2, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, CacheChunks: 2, CollectStats: true,
	})
	if _, err := op.Run(Request{
		Columns: []int{0},
		Deliver: func(*BinaryChunk) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	// Both requests skip everything: the scan itself skips all chunks.
	impossible := func(meta *dbstore.ChunkMeta) bool { return true }
	st, _, err := op.RunShared([]Request{
		{Columns: []int{0}, Skip: impossible, Deliver: func(*BinaryChunk) error { return nil }},
		{Columns: []int{0}, Skip: impossible, Deliver: func(*BinaryChunk) error { return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered() != 0 || st.SkippedChunks != 4 {
		t.Errorf("scan stats = %+v, want all 4 chunks skipped", st)
	}
}

func TestRunSharedErrors(t *testing.T) {
	env := newEnv(t, 64, 2, nil)
	op := New(env.store, env.table, Config{Workers: 1, ChunkLines: 16})
	if _, _, err := op.RunShared(nil); err == nil {
		t.Error("empty request list should fail")
	}
	if _, _, err := op.RunShared([]Request{{Columns: []int{0}}}); err == nil {
		t.Error("request without deliver should fail")
	}
	sentinel := errors.New("boom")
	_, _, err := op.RunShared([]Request{
		{Columns: []int{0}, Deliver: func(*BinaryChunk) error { return nil }},
		{Columns: []int{1}, Deliver: func(*BinaryChunk) error { return sentinel }},
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestExecuteQueriesSharedScan(t *testing.T) {
	env := newEnv(t, 512, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, CacheChunks: 2, Policy: Speculative, Safeguard: true,
	})
	sch := env.table.Schema()
	q1, err := engine.ParseSQL("SELECT SUM(c0+c1) AS s FROM data", sch)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := engine.ParseSQL("SELECT COUNT(*) FROM data WHERE c3 < 500", sch)
	if err != nil {
		t.Fatal(err)
	}
	// A bare COUNT(*) requires no column of its own; it must still see
	// every row, beside other queries and alone.
	q3, err := engine.ParseSQL("SELECT COUNT(*) FROM data", sch)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := ExecuteQueries(op, []*engine.Query{q1, q2, q3})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[2].Rows[0][0].Int; got != 512 {
		t.Errorf("q3 beside others = %d, want 512", got)
	}
	if got, want := results[0].Rows[0][0].Int, gen.SumRange(env.spec, []int{0, 1}, 0, 512); got != want {
		t.Errorf("q1 = %d, want %d", got, want)
	}
	var wantCount int64
	for r := 0; r < 512; r++ {
		if gen.Value(env.spec, r, 3) < 500 {
			wantCount++
		}
	}
	if got := results[1].Rows[0][0].Int; got != wantCount {
		t.Errorf("q2 = %d, want %d", got, wantCount)
	}
	// Union of columns converted once: the scan touched c0, c1, c3.
	if st.DeliveredRaw != 8 {
		t.Errorf("shared scan delivered %d raw chunks", st.DeliveredRaw)
	}
	alone, _, err := ExecuteQueries(op, []*engine.Query{q3})
	if err != nil {
		t.Fatal(err)
	}
	if got := alone[0].Rows[0][0].Int; got != 512 {
		t.Errorf("q3 alone = %d, want 512", got)
	}
	if _, _, err := ExecuteQueries(op, nil); err == nil {
		t.Error("no queries should fail")
	}
}
