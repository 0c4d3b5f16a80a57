package scanraw

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/dbstore"
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
// per chunk write committed, whichever moment issued it — payoff quanta,
// which write several columns, included — so Write.PerChunk() is the cost of
// one chunk's write, its share of a commit included; and the disk sees one
// segment blob per commit, never one per chunk.
func TestProfileWriteCountsEveryStoreWrite(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := gen.CSVSpec{Rows: 512, Cols: 8, Seed: 11, MaxValue: 1000}
			vd := vdisk.Unlimited()
			gen.Preload(vd, "raw/data.csv", spec)
			disk := &countingDisk{Disk: vd}
			store := dbstore.NewStore(disk)
			table, err := store.CreateTable("data", spec.Schema(), "raw/data.csv")
			if err != nil {
				t.Fatal(err)
			}
			op := New(store, table, Config{
				Workers: workers, ChunkLines: 64, Policy: Speculative, Safeguard: true,
				CacheChunks: 4, TextBufferChunks: 2, Speculation: SpecPayoff,
				ColumnWeights: func() []float64 { return []float64{1, 1, 1, 1, 2, 2, 1, 1} },
			})
			groupWrites := 0
			for _, cols := range [][]int{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7}} {
				// A slow consumer backs the pipeline up through a short text
				// buffer to READ, so pooled runs get disk-idle quanta (inline
				// runs get one per conversion).
				st, err := op.Run(Request{Columns: cols, Deliver: func(*BinaryChunk) error {
					time.Sleep(time.Millisecond)
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				groupWrites += st.GroupWritesDuringRun
				op.WaitIdle()
			}
			if groupWrites == 0 {
				t.Fatal("no payoff quantum ran: the test exercises nothing")
			}
			// A chunk write is one segment of one commit: count the catalog's
			// (chunk, commit blob) pairs.
			writes := 0
			for id := 0; id < table.NumChunks(); id++ {
				meta, _ := table.Chunk(id)
				segs := map[string]bool{}
				for _, g := range meta.Groups {
					segs[g.Seg] = true
				}
				writes += len(segs)
			}
			if got := op.ProfileSnapshot().Write.Chunks; got != int64(writes) {
				t.Errorf("Profile.Write.Chunks = %d, the catalog holds %d chunk writes", got, writes)
			}
			commits, chunks := op.LoadCommits()
			if commits != disk.segments.Load() || chunks != int64(writes) {
				t.Errorf("LoadCommits = %d commits of %d chunks; the disk saw %d segment blobs, the catalog %d chunk writes",
					commits, chunks, disk.segments.Load(), writes)
			}
			if commits >= chunks {
				t.Errorf("%d commits for %d chunk writes: nothing was batched", commits, chunks)
			}
		})
	}
}

// TestPendingChunkWrittenOnce: a chunk whose write is encoded but not yet
// committed is pending, and nothing writes it again — not an eviction (the
// cache of 2 evicts pending chunks all through the scan), not the safeguard
// flush, not another idle quantum. Every chunk ends up loaded by exactly one
// chunk write, each column in one group, and only once commits return.
func TestPendingChunkWrittenOnce(t *testing.T) {
	for _, policy := range []WritePolicy{Speculative, BufferedLoad} {
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("%v,workers=%d", policy, workers), func(t *testing.T) {
				env := newEnv(t, 1024, 4, nil)
				op := New(env.store, env.table, Config{
					Workers: workers, ChunkLines: 64, CacheChunks: 2, Policy: policy, Safeguard: true,
				})
				for q := 0; q < 2; q++ {
					if sum, _ := sumViaOperator(t, op, env); sum != wantSum(env) {
						t.Fatalf("sum = %d, want %d", sum, wantSum(env))
					}
					op.WaitIdle()
				}
				n := env.table.NumChunks()
				if got := env.table.CountLoaded(allCols(4)); got != n {
					t.Fatalf("%d of %d chunks loaded", got, n)
				}
				if _, chunks := op.LoadCommits(); chunks != int64(n) {
					t.Errorf("%d chunk writes committed for %d chunks", chunks, n)
				}
				for id := 0; id < n; id++ {
					meta, _ := env.table.Chunk(id)
					held := map[int]int{}
					for _, g := range meta.Groups {
						for _, c := range g.Cols {
							held[c]++
						}
					}
					for c, k := range held {
						if k > 1 {
							t.Errorf("chunk %d holds column %d in %d groups", id, c, k)
						}
					}
				}
			})
		}
	}
}
