package scanraw

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"scanraw/internal/engine"
	"scanraw/internal/gen"
)

// sumCols runs SELECT SUM over the listed columns and checks the result
// against the generator's ground truth.
func sumCols(t *testing.T, op *Operator, env *testEnv, cols []int) RunStats {
	t.Helper()
	q, err := engine.SumAllColumns(env.table.Schema(), "data", cols)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecuteQuery(op, q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0][0].Int
	if want := gen.SumRange(env.spec, cols, 0, env.spec.Rows); got != want {
		t.Fatalf("sum over %v = %d, want %d", cols, got, want)
	}
	return st
}

// legacyGroups lists the pages a build with a fixed group width wrote for a
// query over cols: every run of width consecutive ordinals that cols touch,
// whole. Width 0 is one page of all ncols columns.
func legacyGroups(cols []int, ncols, width int) [][]int {
	if width <= 0 || width > ncols {
		width = ncols
	}
	var out [][]int
	for lo := 0; lo < ncols; lo += width {
		hi := min(lo+width, ncols)
		if slices.ContainsFunc(cols, func(c int) bool { return c >= lo && c < hi }) {
			out = append(out, allCols(hi)[lo:])
		}
	}
	return out
}

// seedLegacyPages leaves on every chunk of env's table the pages that a
// build with the given group width wrote for a query over cols — the
// data-dir such a build left behind — by an external-tables scan of
// chunkLines-line chunks whose every delivery is written as those groups.
func seedLegacyPages(t *testing.T, env *testEnv, chunkLines int, cols []int, width int) {
	t.Helper()
	groups := legacyGroups(cols, env.spec.Cols, width)
	var convert []int
	for _, g := range groups {
		convert = append(convert, g...)
	}
	op := New(env.store, env.table, Config{ChunkLines: chunkLines, Policy: ExternalTables})
	if _, err := op.Run(Request{Columns: convert, Deliver: func(bc *BinaryChunk) error {
		return env.store.WriteLegacyGroups(env.table, bc, groups)
	}}); err != nil {
		t.Fatal(err)
	}
	if n := env.table.CountLoaded(convert); n != env.table.NumChunks() || n == 0 {
		t.Fatalf("seeded %d of %d chunks with %v", n, env.table.NumChunks(), groups)
	}
}

// TestColGroupDifferential sweeps the storage-layout and speculation-policy
// matrix through the same query sequence — a narrow warm-up, a wider query
// that can only be served by partial-width hits, a repeat of it, and a
// full-width query — asserting every cell returns the generator's exact
// sums. Workers 0 exercises the sequential path, workers 4 the pipeline.
// Width 1 starts cold; widths 2 and 0 start from the two- and full-width
// pages an older build left for the warm-up's columns, which the operator
// completes with per-column pages. Results must not depend on the layout on
// disk or on which chunks speculation chose to load.
func TestColGroupDifferential(t *testing.T) {
	weights := []float64{0, 3, 1, 0, 0}
	for _, width := range []int{1, 2, 0} {
		for _, pol := range []SpecPolicy{SpecScan, SpecPayoff} {
			for _, workers := range []int{0, 4} {
				name := fmt.Sprintf("width=%d/spec=%s/workers=%d", width, pol, workers)
				t.Run(name, func(t *testing.T) {
					env := newEnv(t, 512, 5, nil)
					if width != 1 {
						seedLegacyPages(t, env, 64, []int{1}, width)
					}
					op := New(env.store, env.table, Config{
						Workers: workers, ChunkLines: 64, Policy: Speculative,
						Safeguard: true, CacheChunks: 4, CollectStats: true,
						Speculation:   pol,
						ColumnWeights: func() []float64 { return weights },
					})
					phases := [][]int{{1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3, 4}}
					for i, cols := range phases {
						st := sumCols(t, op, env, cols)
						// After the narrow warm-up every chunk has column 1 on
						// pages, so the wider query must be served without a
						// single full-width conversion.
						if i == 1 && st.DeliveredRaw > 0 {
							t.Errorf("phase %d: %d full conversions despite loaded column pages (stats %+v)", i, st.DeliveredRaw, st)
						}
						// Safeguard flush between phases, so phase i+1 sees
						// everything phase i converted.
						op.WaitIdle()
					}
				})
			}
		}
	}
}

// TestColGroupSharedDifferential runs the shared-scan path over the same
// matrix: two coalesced queries with different column sets over a
// partially-loaded table must both get exact results whatever the layout
// on disk and speculation order.
func TestColGroupSharedDifferential(t *testing.T) {
	for _, width := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			env := newEnv(t, 512, 5, nil)
			if width != 1 {
				seedLegacyPages(t, env, 64, []int{2}, width)
			}
			weights := []float64{1, 0, 2, 0, 1}
			op := New(env.store, env.table, Config{
				Workers: 2, ChunkLines: 64, Policy: Speculative,
				Safeguard: true, CacheChunks: 4, CollectStats: true,
				Speculation:   SpecPayoff,
				ColumnWeights: func() []float64 { return weights },
			})
			sumCols(t, op, env, []int{2}) // warm: column 2 on pages everywhere
			op.WaitIdle()

			var sumA, sumB int64
			reqs := []Request{
				{
					Columns: []int{0, 2},
					Deliver: func(bc *BinaryChunk) error {
						for r := 0; r < bc.Rows; r++ {
							sumA += bc.Column(0).IntAt(r) + bc.Column(2).IntAt(r)
						}
						return nil
					},
				},
				{
					Columns: []int{1, 3},
					Deliver: func(bc *BinaryChunk) error {
						for r := 0; r < bc.Rows; r++ {
							sumB += bc.Column(1).IntAt(r) + bc.Column(3).IntAt(r)
						}
						return nil
					},
				},
			}
			if _, _, err := op.RunSharedContext(context.Background(), reqs); err != nil {
				t.Fatal(err)
			}
			if want := gen.SumRange(env.spec, []int{0, 2}, 0, 512); sumA != want {
				t.Errorf("shared query A sum = %d, want %d", sumA, want)
			}
			if want := gen.SumRange(env.spec, []int{1, 3}, 0, 512); sumB != want {
				t.Errorf("shared query B sum = %d, want %d", sumB, want)
			}
		})
	}
}

// TestLegacyGroupServesPartialWidth: a chunk whose loaded columns sit in a
// two-column page an older build wrote is queried for one of them plus an
// unloaded column. The loaded one is read from its group page and only the
// missing one converted (a partial-width hit), the answer is exact, and the
// write that follows adds the missing column as a page of its own, so a
// repeat reads pages only.
func TestLegacyGroupServesPartialWidth(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newEnv(t, 512, 4, nil)
			seedLegacyPages(t, env, 64, []int{0}, 2) // pages {c0,c1}
			op := New(env.store, env.table, Config{
				Workers: workers, ChunkLines: 64, Policy: FullLoad, CacheChunks: 2,
			})
			n := env.table.NumChunks()
			st := sumCols(t, op, env, []int{1, 2})
			if st.DeliveredPartial != n || st.DeliveredRaw != 0 {
				t.Fatalf("first run: %d partial, %d raw of %d chunks, want all partial (%+v)", st.DeliveredPartial, st.DeliveredRaw, n, st)
			}
			op.WaitIdle()
			for id := 0; id < n; id++ {
				meta, _ := env.table.Chunk(id)
				var pages [][]int
				for _, g := range meta.Groups {
					pages = append(pages, g.Cols)
				}
				if !slices.EqualFunc(pages, [][]int{{0, 1}, {2}}, slices.Equal) {
					t.Errorf("chunk %d pages %v, want the legacy [0 1] and its own [2]", id, pages)
				}
			}
			op.Cache().Clear()
			st = sumCols(t, op, env, []int{1, 2})
			if st.DeliveredDB != n {
				t.Errorf("repeat: %d of %d chunks from pages (%+v)", st.DeliveredDB, n, st)
			}
		})
	}
}

// TestPayoffSpecPrefersHotColumns pins the policy itself: with a cold
// cache-resident table and a heavily skewed workload, the payoff ranker
// must write the hot column's groups before scan order would reach them.
//
// How MUCH gets written per scan is timing-dependent by design — with the
// safeguard off, quanta exist only while READ is blocked mid-run. WHAT got
// written is the deterministic part under test: payoff must spend every
// quantum on the hot column while any of its groups is still unloaded.
func TestPayoffSpecPrefersHotColumns(t *testing.T) {
	// Eight chunks fit inside the default buffers, so READ blocks only when
	// the schedule lets it outrun the conversion consumer: rescan (cache cleared,
	// so raw reads recur) until a quantum landed, and accept that none may
	// (observed once in ~800 runs under `make stress`, all 100 scans alike).
	t.Run("default-buffers", func(t *testing.T) {
		payoffPrefersHot(t, 512, Config{CacheChunks: 16}, 100, false)
	})
	// 32 chunks are several times what a one-slot text buffer and two workers
	// hold, so READ blocks again and again with converted chunks already
	// cached: a scan must write. Normally the first does; on a starved host
	// the CPUSlowdown pacing has debt to work off, conversion stops being
	// the slow stage and a whole scan can pass without READ blocking (1 in 20
	// full `go test ./...` runs at GOMAXPROCS=2), hence the rescans.
	t.Run("one-slot-buffers", func(t *testing.T) {
		payoffPrefersHot(t, 2048, Config{CacheChunks: 32, TextBufferChunks: 1}, 20, true)
	})
}

func payoffPrefersHot(t *testing.T, rows int, cfg Config, scans int, mustWrite bool) {
	env := newEnv(t, rows, 4, nil)
	// CPUSlowdown makes conversion dominate, so READ blocks on the full
	// text buffer and the scheduler gets disk-idle quanta to spend.
	cfg.Workers, cfg.ChunkLines, cfg.Policy = 2, 64, Speculative
	cfg.Safeguard, cfg.CollectStats, cfg.CPUSlowdown = false, true, 16
	cfg.Speculation = SpecPayoff
	cfg.ColumnWeights = func() []float64 { return []float64{0, 0, 0, 5} }
	op := New(env.store, env.table, cfg)
	countLoaded := func(col int) int {
		n := 0
		for id := 0; id < env.table.NumChunks(); id++ {
			if meta, ok := env.table.Chunk(id); ok && meta.LoadedAll([]int{col}) {
				n++
			}
		}
		return n
	}
	var loadedHot, loadedCold int
	for attempt := 0; attempt < scans; attempt++ {
		sumCols(t, op, env, []int{0, 1, 2, 3})
		op.WaitIdle()
		loadedHot, loadedCold = countLoaded(3), countLoaded(0)
		if loadedHot > 0 {
			break
		}
		op.Cache().Clear()
	}
	if mustWrite && loadedHot == 0 {
		t.Fatalf("payoff speculation wrote nothing for the hot column in %d scan(s)", scans)
	}
	if loadedCold > loadedHot {
		t.Errorf("cold column loaded on %d chunks vs hot %d: payoff ranking not applied", loadedCold, loadedHot)
	}
}
