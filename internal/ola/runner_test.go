package ola

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	"scanraw/internal/vdisk"
)

// olaEnv is a generated CSV table plus its operator config, rebuilt
// fresh per sub-test so differential runs never share state.
type olaEnv struct {
	store *dbstore.Store
	table *dbstore.Table
	spec  gen.CSVSpec
}

func newOlaEnv(t *testing.T, rows int) *olaEnv {
	t.Helper()
	d := vdisk.Unlimited()
	spec := gen.CSVSpec{Rows: rows, Cols: 3, Seed: 42, MaxValue: 1000}
	gen.Preload(d, "raw/data.csv", spec)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("data", spec.Schema(), "raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	return &olaEnv{store: store, table: table, spec: spec}
}

func (e *olaEnv) operator(cfg scanraw.Config) *scanraw.Operator {
	return scanraw.New(e.store, e.table, cfg)
}

func (e *olaEnv) query(t *testing.T, sql string) *engine.Query {
	t.Helper()
	q, err := engine.ParseSQL(sql, e.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSampledFullScanMatchesFileOrder is the differential satellite: an
// error=0 sampled scan (tolerance zero never converges, so every chunk
// is visited in permutation order) must produce exactly the file-order
// answer, across the pipeline, sequential and cached execution paths.
func TestSampledFullScanMatchesFileOrder(t *testing.T) {
	queries := []string{
		"SELECT SUM(c0) FROM data",
		"SELECT COUNT(*) FROM data WHERE c1 > 500",
		"SELECT c2, COUNT(*), SUM(c0), AVG(c1) FROM data GROUP BY c2",
		"SELECT COUNT(*) FROM data", // requires no column of its own
	}
	configs := []struct {
		name string
		cfg  scanraw.Config
	}{
		{"sequential", scanraw.Config{Workers: 0, ChunkLines: 64, CacheChunks: 4}},
		{"pipeline", scanraw.Config{Workers: 4, ChunkLines: 64, CacheChunks: 4}},
		{"speculative", scanraw.Config{Workers: 2, ChunkLines: 64, CacheChunks: 4, Policy: scanraw.Speculative, Safeguard: true}},
	}
	for _, c := range configs {
		for qi, sql := range queries {
			t.Run(fmt.Sprintf("%s/q%d", c.name, qi), func(t *testing.T) {
				env := newOlaEnv(t, 600)
				// Plain file-order run on a fresh operator.
				want, _, err := scanraw.ExecuteQuery(env.operator(c.cfg), env.query(t, sql))
				if err != nil {
					t.Fatal(err)
				}
				// Sampled run, tolerance zero, on another fresh table.
				env2 := newOlaEnv(t, 600)
				got, r, st, err := Run(context.Background(), env2.operator(c.cfg), env2.query(t, sql), Config{}, 1234, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Exact() {
					t.Fatal("tolerance 0 must cover the whole file")
				}
				if st.TerminatedEarly {
					t.Fatal("tolerance 0 must not terminate early")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sampled result differs:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestSampledScanCachedPath: a second sampled run over a fully cached
// table serves from the cache and still matches the exact answer.
func TestSampledScanCachedPath(t *testing.T) {
	env := newOlaEnv(t, 512)
	op := env.operator(scanraw.Config{Workers: 2, ChunkLines: 64, CacheChunks: 16})
	sql := "SELECT c2, SUM(c0) FROM data GROUP BY c2"
	want, _, err := scanraw.ExecuteQuery(op, env.query(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	got, _, st, err := Run(context.Background(), op, env.query(t, sql), Config{}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeliveredCache == 0 {
		t.Errorf("second run over a warm cache served %d chunks from cache: %+v", st.DeliveredCache, st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached sampled result differs:\n got %+v\nwant %+v", got, want)
	}
}

// cacheTwins are the binary-cache sizes of a pipelined sampled scan that
// asserts an early stop. With eight slots the workers can finish every chunk
// before the estimate converges, so only what holds under every schedule is
// asserted there; the stop itself is asserted on the forced twin (DESIGN.md
// §16), whose one slot admits a chunk only once the previous one was
// consumed.
var cacheTwins = []int{8, 1}

// TestSampledScanTerminatesEarly: a loose tolerance over uniform data
// converges with a sane estimate and, on the forced twin, stops well short
// of the file with the estimate's interval as the answer.
func TestSampledScanTerminatesEarly(t *testing.T) {
	for _, cacheChunks := range cacheTwins {
		forced := cacheChunks == 1
		t.Run(fmt.Sprintf("cache=%d", cacheChunks), func(t *testing.T) {
			env := newOlaEnv(t, 4096) // 64 chunks of 64 lines
			op := env.operator(scanraw.Config{Workers: 4, ChunkLines: 64, CacheChunks: cacheChunks})
			q := env.query(t, "SELECT SUM(c0) FROM data")
			var snaps []Snapshot
			res, r, st, err := Run(context.Background(), op, q, Config{Tolerance: 0.10}, 99, func(s Snapshot) {
				snaps = append(snaps, s)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Satisfied() {
				t.Fatal("scan returned without converging")
			}
			if forced && !st.TerminatedEarly {
				t.Fatalf("converged scan did not terminate early: %+v", st)
			}
			total := env.table.NumChunks()
			sampled := r.LastSnapshot().Chunks
			if forced && sampled >= total {
				t.Fatalf("sampled %d of %d chunks — no saving", sampled, total)
			}
			if sampled < DefaultMinChunks {
				t.Fatalf("converged below the MinChunks floor: %d", sampled)
			}
			// The estimate must be a real number within its own bound of the
			// exact answer scaled by a generous factor (this is one seeded draw
			// of a 95% interval; the coverage suite checks calibration).
			truth := float64(gen.SumRange(env.spec, []int{0}, 0, env.spec.Rows))
			last := r.LastSnapshot()
			est := last.Groups[0].Values[0].Float
			half := last.Groups[0].Bounds[0]
			if relErr := abs(est-truth) / truth; relErr > 0.2 {
				t.Errorf("estimate %v vs truth %v (rel %v)", est, truth, relErr)
			}
			if len(snaps) == 0 {
				t.Fatal("no progress snapshots delivered")
			}
			if !forced {
				return // every chunk may have been sampled: the answer is exact
			}
			if half <= 0 || half/abs(est) > 0.10 {
				t.Errorf("final half-width %v does not meet tolerance at estimate %v", half, est)
			}
			// The result row carries the estimate, not an engine row.
			if len(res.Rows) != 1 || res.Rows[0][0].Float != est {
				t.Errorf("result %+v does not match the last snapshot estimate %v", res.Rows, est)
			}
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSampledScanFeedsSpeculativeLoader: chunks visited in sample order
// flow through the same speculative WRITE path, so a sampled scan — early
// terminated, as the forced twin always is — still leaves pages in the
// database (plus the safeguard flush for what was cached).
func TestSampledScanFeedsSpeculativeLoader(t *testing.T) {
	for _, cacheChunks := range cacheTwins {
		t.Run(fmt.Sprintf("cache=%d", cacheChunks), func(t *testing.T) {
			env := newOlaEnv(t, 4096)
			op := env.operator(scanraw.Config{
				Workers: 2, ChunkLines: 64, CacheChunks: cacheChunks,
				Policy: scanraw.Speculative, Safeguard: true,
			})
			q := env.query(t, "SELECT SUM(c0) FROM data")
			_, _, st, err := Run(context.Background(), op, q, Config{Tolerance: 0.10}, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cacheChunks == 1 && !st.TerminatedEarly {
				t.Fatalf("expected early termination: %+v", st)
			}
			op.WaitIdle()
			if loaded := env.table.CountLoaded([]int{0}); loaded == 0 {
				t.Error("sampled speculative scan loaded no chunks into the database")
			}
		})
	}
}
