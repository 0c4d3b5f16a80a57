package ola

import (
	"context"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	"scanraw/internal/vdisk"
)

// benchEnv builds the shared table for the time-to-bound benchmarks:
// large enough that sampling a prefix is visibly cheaper than scanning
// everything, on a throttled disk so chunk reads carry realistic cost (a
// sampled chunk costs one extent-sized random read).
func benchEnv(b *testing.B) (*dbstore.Store, *dbstore.Table, *engine.Query) {
	b.Helper()
	d := vdisk.New(vdisk.Config{ReadBandwidth: 200 << 20, WriteBandwidth: 200 << 20})
	spec := gen.CSVSpec{Rows: 1 << 18, Cols: 4, Seed: 7, MaxValue: 1000}
	gen.Preload(d, "raw/bench.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("data", spec.Schema(), "raw/bench.csv")
	if err != nil {
		b.Fatal(err)
	}
	q, err := engine.ParseSQL("SELECT SUM(c0+c1) FROM data", table.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return store, table, q
}

var benchCfg = scanraw.Config{Workers: 4, ChunkLines: 2048, CacheChunks: 4}

const benchTolerance = 0.05

// BenchmarkOLAFullScan is the baseline: the same aggregate materialized
// exactly, every chunk scanned in file order.
func BenchmarkOLAFullScan(b *testing.B) {
	store, table, q := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := scanraw.New(store, table, benchCfg)
		res, _, err := scanraw.ExecuteQuery(op, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkOLATimeToBound measures how long online aggregation takes to
// reach a 5% bound at 95% confidence on the same query;
// TestOLATimeToBoundSpeedupFloor holds the full-scan baseline over this to
// its floor.
func BenchmarkOLATimeToBound(b *testing.B) {
	store, table, q := benchEnv(b)
	// Pay the one-time discovery pass outside the timer: a converging
	// estimate needs the chunk count, but every query after the first
	// reuses the catalog.
	if _, _, _, err := Run(context.Background(), scanraw.New(store, table, benchCfg), q,
		Config{Tolerance: benchTolerance}, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := scanraw.New(store, table, benchCfg)
		_, r, _, err := Run(context.Background(), op, q,
			Config{Tolerance: benchTolerance}, int64(i)+1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if last := r.LastSnapshot(); !last.Converged {
			b.Fatalf("no convergence at tolerance %v (%d/%d chunks, rel %v)",
				benchTolerance, last.Chunks, last.Total, last.MaxRel)
		}
	}
}
