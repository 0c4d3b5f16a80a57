package scanraw

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	storepkg "scanraw/internal/store"
	"scanraw/internal/testutil"
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

// TestDurableOpFailureSweep fails the k-th durable operation — a commit's
// segment WriteBlob or a journal append (a commit's, a statistics append, a
// table's completion), whichever comes k-th — of an S1 → S2 pair, for every
// k: under the daemon's default (Speculative, payoff-ranked, pooled) at
// column-group widths 1, 4 and full, and at width 4 under every other policy
// that writes, inline and pooled, so each WRITE moment — after convert, on
// eviction, an idle quantum, the end-of-scan flush — and each commit point —
// a full batch, the end of a run, the flush, WaitIdle — takes a failing k
// through both emitters. Each k runs twice.
//
// Retry: the failure is transient. The run must fail with the injected error
// and nothing else, leave no pin, text buffer or goroutine behind, give the
// right answers when retried, and leave a data-dir that reopens with every
// journaled group intact and answers right again.
//
// Crash: the process dies at the k-th operation — it and every later one
// fail, as nothing more reaches the disk — and the next process opens the
// files left behind. Every journaled group must verify, the chunks must
// answer right, and when the crash fell between a commit's blob and its
// append, that orphan blob is on disk with no record naming it.
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
	// quiet asserts that the operator holds nothing once it is idle.
	quiet := func(t *testing.T, op *Operator, before map[string]bool, what string) {
		t.Helper()
		if s := op.Cache().Stats(); s.PinCount != 0 || s.PinnedEntries != 0 {
			t.Fatalf("%s: %d pins on %d entries left behind", what, s.PinCount, s.PinnedEntries)
		}
		if n := op.textOut.Load(); n != 0 {
			t.Fatalf("%s: %d text buffers out", what, n)
		}
		if leaked := testutil.LeakedSince(before, 5*time.Second); len(leaked) > 0 {
			t.Fatalf("%s: %d goroutines outlive the runs:\n%s", what, len(leaked), strings.Join(leaked, "\n\n"))
		}
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
	orphans := 0
	for _, c := range cases {
		cfg, width := c.cfg, c.width
		t.Run(c.name, func(t *testing.T) {
			for k := 0; ; k++ {
				fired := false
				for _, crash := range []bool{false, true} {
					f, orphan := sweepOnce(t, spec, queries, cfg, width, k, crash, sum, quiet)
					fired = fired || f
					if orphan {
						orphans++
					}
				}
				if !fired {
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
	if orphans == 0 {
		t.Error("no crash fell between a commit's blob and its append")
	}
}

// sweepOnce runs one case of TestDurableOpFailureSweep: the k-th durable
// operation fails, and with crash set so does every one after it. It reports
// whether the k-th operation happened, and whether it was a commit's append
// whose orphan blob the crash left behind.
func sweepOnce(t *testing.T, spec gen.CSVSpec, queries [][]int, cfg Config, width, k int, crash bool,
	sum func(*Operator, *testEnv, []int) error, quiet func(*testing.T, *Operator, map[string]bool, string)) (fired, orphan bool) {
	t.Helper()
	what := fmt.Sprintf("k=%d crash=%v", k, crash)
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

	// The durable operations in order: "blob <name>" or "append".
	var mu sync.Mutex
	var ops []string
	var firedAt = -1
	kth := func(op string) error {
		mu.Lock()
		defer mu.Unlock()
		ops = append(ops, op)
		n := len(ops) - 1
		if n == k {
			firedAt = n
		}
		if n == k || crash && firedAt >= 0 {
			return vdisk.ErrInjected
		}
		return nil
	}
	disk.SetFailure(func(op, name string) error {
		if op == "write" && strings.HasPrefix(name, "db/") {
			return kth("blob " + name)
		}
		return nil
	})
	man.SetFailure(func(op string) error { return kth(op) })

	before := testutil.Snapshot()
	op := New(store, table, cfg)
	failed := false
	for _, cols := range queries {
		if err := sum(op, env, cols); err != nil {
			if !errors.Is(err, vdisk.ErrInjected) {
				t.Fatalf("%s: query over %v failed with %v, want the injected error", what, cols, err)
			}
			failed = true
		}
		op.WaitIdle()
	}
	if crash {
		// No run follows to report a failed background write: it must be
		// waiting for one.
		if err := op.takeFlushErr(); err != nil {
			if !errors.Is(err, vdisk.ErrInjected) {
				t.Fatalf("%s: background write failed with %v, want the injected error", what, err)
			}
			failed = true
		}
	}
	fired = firedAt >= 0
	var orphanBlob string
	if crash && fired && ops[firedAt] == "append" && firedAt > 0 && strings.HasPrefix(ops[firedAt-1], "blob ") {
		orphanBlob = strings.TrimPrefix(ops[firedAt-1], "blob ")
	}
	if !crash {
		disk.SetFailure(nil)
		man.SetFailure(nil)
	}
	quiet(t, op, before, what)
	if !crash {
		// Retry on the same operator. A failed background write reports on
		// the run after it, so the first retry may still carry it.
		for _, cols := range queries {
			err := sum(op, env, cols)
			if err != nil && errors.Is(err, vdisk.ErrInjected) && !failed {
				failed = true
				err = sum(op, env, cols)
			}
			if err != nil {
				t.Fatalf("%s: retry over %v: %v", what, cols, err)
			}
			op.WaitIdle()
		}
		quiet(t, op, before, what+" retried")
	}
	if fired && !failed {
		t.Errorf("%s: the injected failure was swallowed", what)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	// SIGKILL-equivalent restart: no checkpoint was taken.
	env2, man2 := openDurableEnv(t, dir, spec)
	defer man2.Close()
	rec := env2.store.RecoveryStats()
	if rec.ChunksInvalidated != 0 || !crash && rec.ChunksRecovered == 0 {
		t.Fatalf("%s: recovery = %+v, want every journaled group intact", what, rec)
	}
	if orphanBlob != "" {
		if !fd.Exists(orphanBlob) {
			t.Fatalf("%s: the commit blob %s whose append failed is not on disk", what, orphanBlob)
		}
		for id := 0; id < env2.table.NumChunks(); id++ {
			meta, _ := env2.table.Chunk(id)
			for _, g := range meta.Groups {
				if "db/data/"+g.Seg == orphanBlob {
					t.Fatalf("%s: chunk %d names the orphan blob %s", what, id, orphanBlob)
				}
			}
		}
	}
	env2.store.SetGroupWidth(width)
	op2 := New(env2.store, env2.table, cfg)
	for _, cols := range queries {
		if err := sum(op2, env2, cols); err != nil {
			t.Fatalf("%s: after restart, over %v: %v", what, cols, err)
		}
	}
	op2.WaitIdle()
	return fired, orphanBlob != ""
}
