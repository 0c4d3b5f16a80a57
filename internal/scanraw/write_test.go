package scanraw

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/gen"
	storepkg "scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// TestWriteMoments holds every row of momentsFor to what only that row
// decides: how many chunks one cold full-width query over 8 chunks, on a cache
// of 2, writes during the run, queues for the flush, and leaves loaded once
// the operator is idle. -1 marks a count the pooled schedule decides; the
// identity loaded = written + flushed holds on every row regardless.
func TestWriteMoments(t *testing.T) {
	type counts struct{ written, flushed, loaded int }
	rows := []struct {
		policy         WritePolicy
		safeguard      bool
		inline, pooled counts
	}{
		{ExternalTables, false, counts{0, 0, 0}, counts{0, 0, 0}},
		{ExternalTables, true, counts{0, 0, 0}, counts{0, 0, 0}},
		{FullLoad, false, counts{8, 0, 8}, counts{8, 0, 8}},
		{FullLoad, true, counts{8, 0, 8}, counts{8, 0, 8}},
		{Invisible, false, counts{4, 0, 4}, counts{4, 0, 4}},
		{Invisible, true, counts{4, 0, 4}, counts{4, 0, 4}},
		// Six inserts find the cache full; each evicts an unloaded victim.
		{BufferedLoad, false, counts{6, 0, 6}, counts{6, 0, 6}},
		{BufferedLoad, true, counts{6, 2, 8}, counts{6, 2, 8}},
		// Inline, every chunk's conversion is followed by one idle quantum,
		// which writes it. Pooled, the quanta depend on READ blocking; without
		// the safeguard an unloaded victim is dropped and nothing is flushed,
		// with it everything converted ends up loaded.
		{Speculative, false, counts{8, 0, 8}, counts{-1, 0, -1}},
		{Speculative, true, counts{8, 0, 8}, counts{-1, -1, 8}},
	}
	for _, row := range rows {
		for _, workers := range []int{0, 3} {
			want := row.inline
			if workers > 0 {
				want = row.pooled
			}
			t.Run(fmt.Sprintf("%v,safeguard=%v,workers=%d", row.policy, row.safeguard, workers), func(t *testing.T) {
				env := newEnv(t, 512, 4, nil)
				op := New(env.store, env.table, Config{
					Workers: workers, ChunkLines: 64, CacheChunks: 2,
					Policy: row.policy, Safeguard: row.safeguard,
				})
				sum, st := sumViaOperator(t, op, env)
				if sum != wantSum(env) {
					t.Fatalf("sum = %d, want %d", sum, wantSum(env))
				}
				op.WaitIdle()
				got := counts{st.WrittenDuringRun, st.FlushedAfterRun, env.table.CountLoaded(allCols(4))}
				if got.loaded != got.written+got.flushed {
					t.Errorf("%+v: loaded != written + flushed", got)
				}
				check := func(name string, got, want int) {
					if want >= 0 && got != want {
						t.Errorf("%s = %d, want %d", name, got, want)
					}
				}
				check("written", got.written, want.written)
				check("flushed", got.flushed, want.flushed)
				check("loaded", got.loaded, want.loaded)
			})
		}
	}
}

// countingDisk counts the segment blobs written through it.
type countingDisk struct {
	storepkg.Disk
	segments atomic.Int64
}

func (d *countingDisk) WriteBlob(name string, p []byte) error {
	if strings.HasPrefix(name, "db/") {
		d.segments.Add(1)
	}
	return d.Disk.WriteBlob(name, p)
}

// TestProfileWriteCountsEveryStoreWrite: Profile.Write.Chunks advances once
// per store write whichever moment issued it — payoff quanta, which write
// column groups, included — so Write.PerChunk() is the cost of one write.
func TestProfileWriteCountsEveryStoreWrite(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := gen.CSVSpec{Rows: 512, Cols: 8, Seed: 11, MaxValue: 1000}
			vd := vdisk.Unlimited()
			gen.Preload(vd, "raw/data.csv", spec)
			disk := &countingDisk{Disk: vd}
			store := dbstore.NewStore(disk)
			store.SetGroupWidth(1)
			table, err := store.CreateTable("data", spec.Schema(), "raw/data.csv")
			if err != nil {
				t.Fatal(err)
			}
			op := New(store, table, Config{
				Workers: workers, ChunkLines: 64, Policy: Speculative, Safeguard: true,
				CacheChunks: 4, Speculation: SpecPayoff,
				ColumnWeights: func() []float64 { return []float64{1, 1, 1, 1, 2, 2, 1, 1} },
			})
			groupWrites := 0
			for _, cols := range [][]int{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7}} {
				q, err := engine.SumAllColumns(table.Schema(), "data", cols)
				if err != nil {
					t.Fatal(err)
				}
				_, st, err := ExecuteQuery(op, q)
				if err != nil {
					t.Fatal(err)
				}
				groupWrites += st.GroupWritesDuringRun
				op.WaitIdle()
			}
			if groupWrites == 0 {
				t.Fatal("no payoff quantum ran: the test exercises nothing")
			}
			if got, want := op.ProfileSnapshot().Write.Chunks, disk.segments.Load(); got != want {
				t.Errorf("Profile.Write.Chunks = %d, the disk saw %d segment writes", got, want)
			}
		})
	}
}
