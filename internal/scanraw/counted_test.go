package scanraw

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/vdisk"
)

// countWhere is the filter class's shape over the test tables: a COUNT of c3,
// a column nothing else reads, under a predicate on c7.
const countWhere = "SELECT COUNT(c3) FROM data WHERE c7 < 300"

// wantCountWhere is countWhere's answer from the generator.
func wantCountWhere(spec gen.CSVSpec) int64 {
	var n int64
	for r := 0; r < spec.Rows; r++ {
		if gen.Value(spec, r, 7) < 300 {
			n++
		}
	}
	return n
}

func TestCountedColumns(t *testing.T) {
	sch := gen.CSVSpec{Cols: 8}.Schema()
	for _, c := range []struct {
		sql           string
		read, counted []int
	}{
		{countWhere, []int{7}, []int{3}},
		{"SELECT COUNT(c3) FROM data", []int{3}, nil},
		{"SELECT COUNT(*) FROM data", []int{0}, nil},
		{"SELECT COUNT(c3), COUNT(c5) FROM data WHERE c7 < 3", []int{7}, []int{3, 5}},
		{"SELECT COUNT(c3), SUM(c3) FROM data WHERE c7 < 3", []int{3, 7}, nil},
		{"SELECT COUNT(c3 + c1) FROM data WHERE c7 < 3", []int{1, 3, 7}, nil},
		{"SELECT c3 % 4, COUNT(c3) FROM data GROUP BY c3 % 4", []int{3}, nil},
		{"SELECT c1, COUNT(c3) FROM data GROUP BY c1", []int{1}, []int{3}},
	} {
		q, err := engine.ParseSQL(c.sql, sch)
		if err != nil {
			t.Fatal(err)
		}
		read, counted := countedColumns(q)
		if !slices.Equal(read, c.read) || !slices.Equal(counted, c.counted) {
			t.Errorf("%s: read %v, counted %v; want %v, %v", c.sql, read, counted, c.read, c.counted)
		}
	}
}

// A column any member of a shared scan reads is read, whoever counts it.
func TestUnionColumnsReadWins(t *testing.T) {
	read, counted := unionColumns([]Request{
		{Columns: []int{7}, counted: []int{3, 5}},
		{Columns: []int{3}},
		{Columns: []int{1}, counted: []int{5}},
	})
	if !slices.Equal(read, []int{1, 3, 7}) || !slices.Equal(counted, []int{5}) {
		t.Fatalf("read %v, counted %v; want [1 3 7], [5]", read, counted)
	}
}

// TestCountOnlyColumnReadsNoPages: on a fully loaded 16-column table with
// the cache cleared, the filter class's COUNT(c3) ... WHERE c7 < t is served
// from pages for every chunk and moves at most one column's pages plus their
// framing; a cache entry holding c7 alone serves it from memory. Both answer
// as the generator does.
func TestCountOnlyColumnReadsNoPages(t *testing.T) {
	const cols, chunkLines = 16, 64
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 16*chunkLines, cols, nil)
			loadAll(t, env, chunkLines)
			op := New(env.store, env.table, Config{Workers: workers, ChunkLines: chunkLines})
			chunks := int64(env.table.NumChunks())
			count := func() RunStats {
				t.Helper()
				res, st := execSQL(t, op, countWhere)
				if got, want := res.Rows[0][0].Int, wantCountWhere(env.spec); got != want {
					t.Fatalf("%s = %d, want %d", countWhere, got, want)
				}
				return st
			}

			op.Cache().Clear()
			full := sumCols(t, op, env, allCols(cols))
			op.Cache().Clear()
			st := count()
			if st.DeliveredDB != int(chunks) || st.Delivered() != int(chunks) {
				t.Fatalf("%d of %d chunks from pages (%+v)", st.DeliveredDB, chunks, st.ScanReport)
			}
			bound := full.DiskReadBytes/cols + chunks*pageFraming
			if st.DiskReadBytes > bound || st.DiskReadBytes == 0 {
				t.Errorf("read %d bytes; full width read %d, bound %d", st.DiskReadBytes, full.DiskReadBytes, bound)
			}

			op.Cache().Clear()
			sumCols(t, op, env, []int{7})
			st = count()
			if st.DeliveredCache != int(chunks) || st.DiskReadBytes != 0 {
				t.Fatalf("over c7-only cache entries: %d of %d chunks from the cache, %d bytes read (%+v)",
					st.DeliveredCache, chunks, st.DiskReadBytes, st.ScanReport)
			}
			checkPins(t, op)
		})
	}
}

// TestSharedScanReadsWhatAMemberReads: beside a member that sums c3, a
// member that only counts it still gets its chunks, and the scan reads c3.
func TestSharedScanReadsWhatAMemberReads(t *testing.T) {
	env := newEnv(t, 8*64, 16, nil)
	loadAll(t, env, 64)
	op := New(env.store, env.table, Config{Workers: 2, ChunkLines: 64})
	qs := make([]*engine.Query, 2)
	for i, sql := range []string{"SELECT SUM(c3) FROM data", countWhere} {
		q, err := engine.ParseSQL(sql, env.table.Schema())
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	res, st, err := ExecuteQueries(op, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res[0].Rows[0][0].Int, gen.SumRange(env.spec, []int{3}, 0, env.spec.Rows); got != want {
		t.Errorf("SUM(c3) = %d, want %d", got, want)
	}
	if got, want := res[1].Rows[0][0].Int, wantCountWhere(env.spec); got != want {
		t.Errorf("%s = %d, want %d", countWhere, got, want)
	}
	if st.DeliveredDB != env.table.NumChunks() {
		t.Errorf("%d of %d chunks from pages (%+v)", st.DeliveredDB, env.table.NumChunks(), st.ScanReport)
	}
	checkPins(t, op)
}

// TestCountedColumnErrorsOnEveryPath: a malformed c3 field in chunk 2 fails
// the COUNT(c3) query with the one message whatever else is loaded — cold,
// after SUM(c7) has loaded c7 alone (the chunk converts c3 beside c7's
// page, or beside c7's cache entry, which alone cannot serve it), and beside
// SUM(c7) in a shared scan — because a column is never skipped before its
// load has validated it.
func TestCountedColumnErrorsOnEveryPath(t *testing.T) {
	const cols, chunkLines, bad = 8, 32, 2*32 + 5
	spec := gen.CSVSpec{Rows: 4 * chunkLines, Cols: cols, Seed: 42, MaxValue: 1000}
	var raw []byte
	for r := 0; r < spec.Rows; r++ {
		row := gen.AppendRow(nil, spec, r)
		if r == bad {
			f := bytes.Split(row, []byte{','})
			f[3] = []byte("4x")
			row = bytes.Join(f, []byte{','})
		}
		raw = append(raw, row...)
	}
	setup := func() *Operator {
		d := vdisk.Unlimited()
		d.Preload("raw/data.csv", raw)
		store := dbstore.NewStore(d)
		table, err := store.CreateTable("data", spec.Schema(), "raw/data.csv")
		if err != nil {
			t.Fatal(err)
		}
		return New(store, table, Config{Workers: 2, ChunkLines: chunkLines, Policy: FullLoad})
	}
	query := func(op *Operator, sqls ...string) error {
		qs := make([]*engine.Query, len(sqls))
		for i, sql := range sqls {
			q, err := engine.ParseSQL(sql, op.Table().Schema())
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		_, _, err := ExecuteQueriesContext(context.Background(), op, qs)
		return err
	}
	loadC7 := func(clear bool) *Operator {
		op := setup()
		if err := query(op, "SELECT SUM(c7) FROM data"); err != nil {
			t.Fatalf("SUM(c7) over a file whose c3 is malformed: %v", err)
		}
		op.WaitIdle()
		if n := len(loadedIDs(op.Table(), []int{7})); n != op.Table().NumChunks() || len(loadedIDs(op.Table(), []int{3})) != 0 {
			t.Fatalf("c7 loaded in %d of %d chunks, c3 in %d", n, op.Table().NumChunks(), len(loadedIDs(op.Table(), []int{3})))
		}
		if clear {
			op.Cache().Clear()
		}
		return op
	}

	cold := query(setup(), countWhere)
	if want := `kernel: chunk 2 row 5 col 3: invalid integer "4x"`; cold == nil || cold.Error() != want {
		t.Fatalf("cold: err %v, want %q", cold, want)
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"c7 loaded", query(loadC7(true), countWhere)},
		{"c7 loaded and cached", query(loadC7(false), countWhere)},
		{"shared beside SUM(c7)", query(loadC7(true), countWhere, "SELECT SUM(c7) FROM data")},
		{"shared cold", query(setup(), "SELECT SUM(c7) FROM data", countWhere)},
	} {
		if c.err == nil || c.err.Error() != cold.Error() {
			t.Errorf("%s: err %v, want %q as cold", c.name, c.err, cold)
		}
	}
}
