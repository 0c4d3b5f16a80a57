package scanraw

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	storepkg "scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// openDurableEnv assembles the storage stack scanrawd uses with -data-dir —
// file-backed blobs plus a journaled catalog — and stages the generated CSV
// the same way the daemon does at startup. Reopening on the same dir is a
// warm start: the catalog is rebuilt from the manifest before EnsureTable
// runs.
func openDurableEnv(t *testing.T, dir string, spec gen.CSVSpec) (*testEnv, *storepkg.Manifest) {
	t.Helper()
	fd, err := storepkg.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := storepkg.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dbstore.OpenDurable(fd, man)
	if err != nil {
		t.Fatal(err)
	}
	raw := gen.Bytes(spec)
	fd.Preload("raw/data.csv", raw)
	table, err := store.EnsureTable("data", spec.Schema(), "raw/data.csv", storepkg.FingerprintBytes(raw))
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: store, table: table, spec: spec}, man
}

// TestDurableKillAndRestart is the acceptance scenario for the durable
// store: convert with speculative loading, die without a checkpoint (the
// manifest journal is all that survives, as after SIGKILL), restart on the
// same directory, and verify the second process serves from the database —
// strictly fewer raw conversions — with byte-identical results.
func TestDurableKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	spec := gen.CSVSpec{Rows: 512, Cols: 4, Seed: 42, MaxValue: 1000}

	env, man := openDurableEnv(t, dir, spec)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true,
	})
	coldSum, coldStats := sumViaOperator(t, op, env)
	if coldSum != wantSum(env) {
		t.Fatalf("cold sum = %d, want %d", coldSum, wantSum(env))
	}
	if coldStats.DeliveredRaw == 0 {
		t.Fatal("cold run should convert from raw")
	}
	// Let the safeguard flush land its pages, then crash: no Checkpoint, no
	// graceful drain — recovery must come from the journal alone.
	op.WaitIdle()
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	env2, man2 := openDurableEnv(t, dir, spec)
	defer man2.Close()
	rec := env2.store.RecoveryStats()
	if rec.ChunksRecovered == 0 {
		t.Fatal("restart recovered no chunks")
	}
	if rec.ChunksInvalidated != 0 {
		t.Errorf("clean restart invalidated %d chunks", rec.ChunksInvalidated)
	}
	if !env2.table.Complete() {
		t.Error("recovered table lost chunk-discovery completeness")
	}
	op2 := New(env2.store, env2.table, Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true,
	})
	warmSum, warmStats := sumViaOperator(t, op2, env2)
	if warmSum != coldSum {
		t.Errorf("warm sum = %d, cold sum = %d", warmSum, coldSum)
	}
	if warmStats.DeliveredRaw >= coldStats.DeliveredRaw {
		t.Errorf("warm run read %d chunks from raw, cold read %d: restart gained nothing",
			warmStats.DeliveredRaw, coldStats.DeliveredRaw)
	}
	if warmStats.DeliveredDB == 0 {
		t.Error("warm run served nothing from the database")
	}
	op2.WaitIdle()
}

// TestDurableCorruptPageReconverts flips a byte in one persisted page blob
// and restarts: recovery must invalidate exactly the damaged chunk's column
// (never panic, never serve the bad bytes) and the next query silently
// re-converts that chunk from the raw file with a correct result.
func TestDurableCorruptPageReconverts(t *testing.T) {
	dir := t.TempDir()
	spec := gen.CSVSpec{Rows: 512, Cols: 4, Seed: 7, MaxValue: 1000}

	env, man := openDurableEnv(t, dir, spec)
	op := New(env.store, env.table, Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true,
	})
	coldSum, _ := sumViaOperator(t, op, env)
	if coldSum != wantSum(env) {
		t.Fatalf("cold sum = %d, want %d", coldSum, wantSum(env))
	}
	op.WaitIdle()
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one page blob on disk (anything under blobs/db is a page).
	var pages []string
	err := filepath.Walk(filepath.Join(dir, "blobs", "db"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			pages = append(pages, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no persisted pages found")
	}
	victim := pages[len(pages)/2]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	env2, man2 := openDurableEnv(t, dir, spec)
	defer man2.Close()
	rec := env2.store.RecoveryStats()
	if rec.ChunksInvalidated == 0 {
		t.Fatal("corrupt page was not invalidated during recovery")
	}
	op2 := New(env2.store, env2.table, Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true,
	})
	warmSum, warmStats := sumViaOperator(t, op2, env2)
	if warmSum != coldSum {
		t.Errorf("sum after re-conversion = %d, want %d", warmSum, coldSum)
	}
	if warmStats.DeliveredRaw+warmStats.DeliveredPartial == 0 {
		t.Error("damaged chunk should have been re-converted from raw")
	}
	if warmStats.DeliveredDB == 0 {
		t.Error("undamaged chunks should still come from the database")
	}
	op2.WaitIdle()
}

// TestDurableOpFailureSweep fails the k-th durable operation — a segment
// WriteBlob or a journal append, whichever comes k-th — of an S1 → S2 pair,
// for every k: under the daemon's default (Speculative, payoff-ranked, pooled)
// at column-group widths 1, 4 and full, and at width 4 under every other
// policy that writes, inline and pooled, so each WRITE moment — after
// convert, on eviction, an idle quantum, the end-of-scan flush — takes a
// failing k through both emitters. Whatever k hits (a write at any moment, a
// statistics append), the run must fail with the injected error and nothing
// else, leave no pin behind, give the right answers when retried, and leave a
// data-dir that reopens with every journaled group intact and answers right
// again.
func TestDurableOpFailureSweep(t *testing.T) {
	spec := gen.CSVSpec{Rows: 512, Cols: 8, Seed: 11, MaxValue: 1000}
	queries := [][]int{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7}} // S2 is a partial-width hit
	cfg := Config{
		Workers: 2, ChunkLines: 64, Policy: Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true, Speculation: SpecPayoff,
		ColumnWeights: func() []float64 { return []float64{1, 1, 1, 1, 2, 2, 1, 1} },
	}
	// sum runs one query; a nil error means the answer was checked.
	sum := func(op *Operator, env *testEnv, cols []int) error {
		q, err := engine.SumAllColumns(env.table.Schema(), "data", cols)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := ExecuteQuery(op, q)
		if err != nil {
			return err
		}
		if got, want := res.Rows[0][0].Int, gen.SumRange(spec, cols, 0, spec.Rows); got != want {
			t.Fatalf("sum over %v = %d, want %d", cols, got, want)
		}
		return nil
	}
	type sweepCase struct {
		name  string
		cfg   Config
		width int
	}
	var cases []sweepCase
	for _, width := range []int{1, 4, 0} {
		cases = append(cases, sweepCase{fmt.Sprintf("colgroups=%d", width), cfg, width})
	}
	for _, policy := range []WritePolicy{FullLoad, BufferedLoad, Invisible, Speculative} {
		for _, workers := range []int{0, 2} {
			c := cfg
			c.Policy, c.Workers, c.Speculation = policy, workers, SpecScan
			cases = append(cases, sweepCase{fmt.Sprintf("%v,workers=%d", policy, workers), c, 4})
		}
	}
	for _, c := range cases {
		cfg, width := c.cfg, c.width
		t.Run(c.name, func(t *testing.T) {
			for k := 0; ; k++ {
				dir := t.TempDir()
				fd, err := storepkg.OpenFileDisk(filepath.Join(dir, "blobs"))
				if err != nil {
					t.Fatal(err)
				}
				disk := vdisk.NewBacked(vdisk.Config{}, fd)
				man, err := storepkg.OpenManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				store, err := dbstore.OpenDurable(disk, man)
				if err != nil {
					t.Fatal(err)
				}
				store.SetGroupWidth(width)
				raw := gen.Bytes(spec)
				fd.Preload("raw/data.csv", raw)
				table, err := store.EnsureTable("data", spec.Schema(), "raw/data.csv", storepkg.FingerprintBytes(raw))
				if err != nil {
					t.Fatal(err)
				}
				env := &testEnv{store: store, table: table, spec: spec}

				var ops atomic.Int64
				var fired atomic.Bool
				kth := func() error {
					if ops.Add(1)-1 == int64(k) {
						fired.Store(true)
						return vdisk.ErrInjected
					}
					return nil
				}
				disk.SetFailure(func(op, name string) error {
					if op == "write" && strings.HasPrefix(name, "db/") {
						return kth()
					}
					return nil
				})
				man.SetFailure(func(string) error { return kth() })

				op := New(store, table, cfg)
				failed := false
				for _, cols := range queries {
					if err := sum(op, env, cols); err != nil {
						if !errors.Is(err, vdisk.ErrInjected) {
							t.Fatalf("k=%d: query over %v failed with %v, want the injected error", k, cols, err)
						}
						failed = true
					}
					op.WaitIdle()
				}
				disk.SetFailure(nil)
				man.SetFailure(nil)
				if s := op.Cache().Stats(); s.PinCount != 0 || s.PinnedEntries != 0 {
					t.Fatalf("k=%d: %d pins on %d entries left behind", k, s.PinCount, s.PinnedEntries)
				}
				// Retry on the same operator. A failed safeguard flush reports
				// on the run after it, so the first retry may still carry it.
				for _, cols := range queries {
					err := sum(op, env, cols)
					if err != nil && errors.Is(err, vdisk.ErrInjected) && !failed {
						failed = true
						err = sum(op, env, cols)
					}
					if err != nil {
						t.Fatalf("k=%d: retry over %v: %v", k, cols, err)
					}
					op.WaitIdle()
				}
				if fired.Load() && !failed {
					t.Errorf("k=%d: the injected failure was swallowed", k)
				}
				if err := man.Close(); err != nil {
					t.Fatal(err)
				}

				// SIGKILL-equivalent restart: no checkpoint was taken.
				env2, man2 := openDurableEnv(t, dir, spec)
				if rec := env2.store.RecoveryStats(); rec.ChunksInvalidated != 0 || rec.ChunksRecovered == 0 {
					t.Fatalf("k=%d: recovery = %+v, want every journaled group intact", k, rec)
				}
				env2.store.SetGroupWidth(width)
				op2 := New(env2.store, env2.table, cfg)
				for _, cols := range queries {
					if err := sum(op2, env2, cols); err != nil {
						t.Fatalf("k=%d: after restart, over %v: %v", k, cols, err)
					}
				}
				op2.WaitIdle()
				if err := man2.Close(); err != nil {
					t.Fatal(err)
				}
				if !fired.Load() {
					// k is past the last durable operation: every one has had
					// its turn.
					if k == 0 {
						t.Fatal("the sequence performed no durable operation")
					}
					return
				}
			}
		})
	}
}
