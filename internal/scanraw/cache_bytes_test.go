package scanraw

import "testing"

// loadAll stores every column of every chunk (FullLoad) through an operator
// of its own, so a fresh operator on the same store starts with an empty
// cache and a fully loaded catalog.
func loadAll(t *testing.T, env *testEnv, chunkLines int) {
	t.Helper()
	loader := New(env.store, env.table, Config{Workers: 2, ChunkLines: chunkLines, Policy: FullLoad})
	cols := allCols(env.spec.Cols)
	if _, err := loader.Run(Request{Columns: cols, Deliver: func(*BinaryChunk) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	loader.WaitIdle()
	if n := len(loadedIDs(env.table, cols)); n != env.table.NumChunks() {
		t.Fatalf("%d of %d chunks loaded", n, env.table.NumChunks())
	}
}

// checkPins fails when the operator's cache holds a pin or exceeds its
// budget once every scan is over.
func checkPins(t *testing.T, op *Operator) {
	t.Helper()
	op.WaitIdle()
	if s := op.Cache().Stats(); s.PinCount != 0 || s.Bytes > s.CapacityBytes {
		t.Fatalf("after the scans: %+v, want no pins and bytes within the budget", s)
	}
}

// A converged scan over int32 pages stays in the cache: a chunk read back
// from int32 pages costs half a full-width chunk, so the default 32-chunk
// budget holds all 64 chunks of 16 columns, and the third scan of a fresh
// operator serves them from memory. Raw conversion still yields full-width
// int64 chunks, and 33 of them evict exactly one.
func TestConvergedScanStaysCached(t *testing.T) {
	const cols, chunkLines, cacheChunks = 16, 64, 32
	t.Run("int32 pages", func(t *testing.T) {
		env := newEnv(t, 64*chunkLines, cols, nil)
		loadAll(t, env, chunkLines)
		op := New(env.store, env.table, Config{Workers: 2, ChunkLines: chunkLines, CacheChunks: cacheChunks})
		var st RunStats
		for scan := 0; scan < 3; scan++ {
			st = sumCols(t, op, env, allCols(cols))
		}
		if st.DeliveredCache < 63 {
			t.Fatalf("third scan: %d of 64 chunks from the cache, want at least 63 (%+v)", st.DeliveredCache, st.ScanReport)
		}
		checkPins(t, op)
	})
	t.Run("raw int64", func(t *testing.T) {
		env := newEnv(t, (cacheChunks+1)*chunkLines, cols, nil)
		op := New(env.store, env.table, Config{Workers: 2, ChunkLines: chunkLines, CacheChunks: cacheChunks})
		sumCols(t, op, env, allCols(cols))
		if n := op.Cache().Len(); n != cacheChunks {
			t.Fatalf("%d chunks cached after converting %d, want %d", n, cacheChunks+1, cacheChunks)
		}
		st := sumCols(t, op, env, allCols(cols))
		if st.DeliveredCache != cacheChunks || st.DeliveredRaw != 1 {
			t.Fatalf("second scan: %d from the cache, %d raw; want %d and 1", st.DeliveredCache, st.DeliveredRaw, cacheChunks)
		}
		checkPins(t, op)
	})
}
