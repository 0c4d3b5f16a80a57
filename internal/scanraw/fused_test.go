package scanraw

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/parse"
	"scanraw/internal/schema"
	"scanraw/internal/tok"
	"scanraw/internal/vdisk"
)

// mixedEnv stages a deterministic int64+float64+string CSV so the fused
// differential tests exercise every kernel, not just the int64 shapes the
// generated test files use.
func mixedEnv(t *testing.T, rows int) (*dbstore.Store, *dbstore.Table) {
	t.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "a", Type: schema.Int64},
		schema.Column{Name: "b", Type: schema.Int64},
		schema.Column{Name: "f", Type: schema.Float64},
		schema.Column{Name: "s", Type: schema.Str},
	)
	rng := rand.New(rand.NewSource(7))
	var data []byte
	for r := 0; r < rows; r++ {
		data = strconv.AppendInt(data, int64(r), 10)
		data = append(data, ',')
		data = strconv.AppendInt(data, rng.Int63n(2000)-1000, 10)
		data = append(data, ',')
		data = strconv.AppendFloat(data, rng.NormFloat64()*100, 'f', -1, 64)
		data = append(data, ',')
		data = append(data, fmt.Sprintf("row%d", rng.Intn(50))...)
		if r%7 == 0 {
			data = append(data, '\r') // CRLF rows ride along
		}
		data = append(data, '\n')
	}
	d := vdisk.Unlimited()
	d.Preload("raw/mixed.csv", data)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("data", sch, "raw/mixed.csv")
	if err != nil {
		t.Fatal(err)
	}
	return store, table
}

// runSQL executes one statement on a fresh operator built with cfg.
func runSQL(t *testing.T, store *dbstore.Store, table *dbstore.Table, cfg Config, sql string) (*engine.Result, RunStats) {
	t.Helper()
	q, err := engine.ParseSQL(sql, table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecuteQuery(New(store, table, cfg), q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, st
}

// referenceSQL answers one statement without the operator: the table's raw
// file split, tokenized and parsed by the two-stage reference (internal/tok,
// internal/parse), chunk by chunk in file order, into the same kind of
// consumer ExecuteQuery feeds.
func referenceSQL(t *testing.T, store *dbstore.Store, table *dbstore.Table, chunkLines int, sql string) *engine.Result {
	t.Helper()
	sch := table.Schema()
	q, err := engine.ParseSQL(sql, sch)
	if err != nil {
		t.Fatal(err)
	}
	cols := q.RequiredColumns()
	if len(cols) == 0 {
		cols = []int{0}
	}
	data, err := store.Disk().ReadBlob(table.RawFile())
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := tok.SplitChunks(data, chunkLines)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.NewExecutor(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	tk := tok.Tokenizer{Delim: ',', MinFields: sch.NumColumns()}
	ps := parse.Parser{Schema: sch}
	for _, tc := range chunks {
		pm, err := tk.Tokenize(tc, cols[len(cols)-1]+1)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := ps.Parse(tc, pm, cols)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ConsumeCounted(bc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ex.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameResult compares two engine results cell by cell. Ints and
// strings must match exactly. Float aggregates are compared with a tight
// relative tolerance: per-chunk conversion is byte-identical (the kernel
// package's differential suite proves that), but chunks are delivered to
// the engine in completion order, so a parallel run's float reduction
// order — and with it the last couple of ULPs of a SUM — depends on
// worker scheduling.
func requireSameResult(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: rows %d vs %d", label, len(want.Rows), len(got.Rows))
	}
	for ri, wr := range want.Rows {
		gr := got.Rows[ri]
		if len(wr) != len(gr) {
			t.Fatalf("%s: row %d width %d vs %d", label, ri, len(wr), len(gr))
		}
		for ci := range wr {
			w, g := wr[ci], gr[ci]
			if w.Typ != g.Typ || w.Int != g.Int || w.Str != g.Str {
				t.Errorf("%s: row %d col %d: %v vs %v", label, ri, ci, w, g)
				continue
			}
			if diff := math.Abs(w.Float - g.Float); diff > 1e-9*math.Max(1, math.Abs(w.Float)) {
				t.Errorf("%s: row %d col %d: float %v vs %v", label, ri, ci, w.Float, g.Float)
			}
		}
	}
}

// TestFusedMatchesTwoStage runs the same queries through the operator —
// sequential (0 workers) and pipelined — and through the two-stage
// reference conversion outside it, and demands identical results.
func TestFusedMatchesTwoStage(t *testing.T) {
	queries := []string{
		"SELECT SUM(a), SUM(b), COUNT(*) FROM data",      // int64 kernels
		"SELECT SUM(f), MIN(f), MAX(f) FROM data",        // float path
		"SELECT COUNT(*) FROM data WHERE b < 0",          // predicate
		"SELECT SUM(a+b) FROM data WHERE s LIKE 'row1%'", // string column
		"SELECT SUM(b) FROM data WHERE a < 100",          // selective subset
	}
	for _, workers := range []int{0, 4} {
		for _, sql := range queries {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, sql), func(t *testing.T) {
				store, table := mixedEnv(t, 500)
				want := referenceSQL(t, store, table, 64, sql)
				got, _ := runSQL(t, store, table,
					Config{Workers: workers, ChunkLines: 64, CacheChunks: 4, Policy: ExternalTables}, sql)
				requireSameResult(t, sql, want, got)
			})
		}
	}
}

// TestFusedPartialWidthMatchesTwoStage covers the per-plan kernels: a
// narrow query loads one column of every chunk, so the wider query after it
// converts only the other columns from raw and merges the loaded one from
// its pages — and must still match the reference.
func TestFusedPartialWidthMatchesTwoStage(t *testing.T) {
	cases := []struct{ warm, sql string }{
		// b on pages; (a,f,s) converts through the generic kernel.
		{"SELECT SUM(b) FROM data", "SELECT SUM(a+b), SUM(f) FROM data WHERE s LIKE 'row1%'"},
		// f on pages; (a,b) converts through the int64 kernel.
		{"SELECT SUM(f) FROM data", "SELECT SUM(a), MAX(f) FROM data WHERE b < 0"},
	}
	for _, workers := range []int{0, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.sql), func(t *testing.T) {
				store, table := mixedEnv(t, 500)
				op := New(store, table, Config{Workers: workers, ChunkLines: 64, CacheChunks: 2, Policy: FullLoad})
				for _, sql := range []string{c.warm, c.sql} {
					q, err := engine.ParseSQL(sql, table.Schema())
					if err != nil {
						t.Fatal(err)
					}
					got, st, err := ExecuteQuery(op, q)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					requireSameResult(t, sql, referenceSQL(t, store, table, 64, sql), got)
					if sql == c.sql && st.DeliveredPartial == 0 {
						t.Errorf("no chunk was served by a partial-width plan: %+v", st)
					}
				}
			})
		}
	}
}

// TestFusedProfileSkipsTokenize pins the accounting rule: conversion is one
// fused pass (no positional map exists), so Profile.Tokenize stays zero and
// all conversion time lands on PARSE.
func TestFusedProfileSkipsTokenize(t *testing.T) {
	store, table := mixedEnv(t, 500)
	_, st := runSQL(t, store, table, Config{Workers: 2, ChunkLines: 64, CacheChunks: 4, Policy: ExternalTables},
		"SELECT SUM(a), SUM(f) FROM data")
	if st.Profile.Tokenize.Chunks != 0 || st.Profile.Tokenize.Time != 0 {
		t.Errorf("fused run tokenized: %+v", st.Profile.Tokenize)
	}
	if st.Profile.Parse.Chunks != int64(st.DeliveredRaw) {
		t.Errorf("parse chunks %d, delivered raw %d", st.Profile.Parse.Chunks, st.DeliveredRaw)
	}
}

// TestFusedSpeculativeLoadRoundTrip drives the full load-then-reread
// cycle under fused conversion: chunks converted by a kernel are written
// to the database and must read back identical.
func TestFusedSpeculativeLoadRoundTrip(t *testing.T) {
	store, table := mixedEnv(t, 500)
	cfg := Config{Workers: 2, ChunkLines: 64, CacheChunks: 2, Policy: Speculative, Safeguard: true}
	op := New(store, table, cfg)
	sql := "SELECT SUM(a), SUM(b), SUM(f) FROM data"
	q, err := engine.ParseSQL(sql, table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := ExecuteQuery(op, q)
	if err != nil {
		t.Fatal(err)
	}
	op.WaitIdle()
	// Re-run until everything is served from the cache and the database.
	for i := 0; i < 8; i++ {
		res, st, err := ExecuteQuery(op, q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("pass %d", i), first, res)
		op.WaitIdle()
		if st.DeliveredRaw == 0 {
			return
		}
	}
	t.Error("speculative loading never converged to zero raw chunks")
}
