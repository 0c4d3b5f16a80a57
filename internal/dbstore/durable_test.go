package dbstore

import (
	"os"
	"path/filepath"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/store"
)

// durableEnv opens a manifest + file disk in dir and builds the durable
// store over them, registering cleanup for the manifest.
func durableEnv(t *testing.T, dir string) (*Store, *store.Manifest) {
	t.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { man.Close() })
	s, err := OpenDurable(fd, man)
	if err != nil {
		t.Fatal(err)
	}
	return s, man
}

var testFP = store.Fingerprint{Size: 999, CRC: 0x1234, ModTimeNs: 7}

var allCols3 = []int{0, 1, 2}

// allStats collects the statistics of every column of a sch3 chunk.
func allStats(bc *chunk.BinaryChunk) []ColStats {
	stats := make([]ColStats, len(allCols3))
	for i, c := range allCols3 {
		stats[i] = CollectStats(bc.Column(c))
	}
	return stats
}

// populate stages a table and loads two full chunks plus stats through the
// normal write path.
func populate(t *testing.T, s *Store) *Table {
	t.Helper()
	tbl, err := s.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		bc := fullChunk(t, id, 8)
		if err := tbl.EnsureChunk(id, 8, int64(id*100), 100); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetChunkStats(id, allCols3, allStats(bc)); err != nil {
			t.Fatal(err)
		}
		if err := writeAll(s, tbl, bc); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.SetComplete(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestDurableRecoversCatalog is the crash-and-restart core: populate, drop
// the store without a checkpoint (appends are already fsynced — this is a
// SIGKILL), reopen, and verify the catalog and the data both survive.
func TestDurableRecoversCatalog(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	populate(t, s)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	tbl2, err := s2.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.RecoveryStats()
	if rec.TablesRecovered != 1 || rec.ChunksRecovered != 2 || rec.ChunksInvalidated != 0 {
		t.Errorf("recovery = %+v", rec)
	}
	if !tbl2.Complete() || tbl2.NumChunks() != 2 {
		t.Errorf("complete=%v chunks=%d", tbl2.Complete(), tbl2.NumChunks())
	}
	all := []int{0, 1, 2}
	for id := 0; id < 2; id++ {
		meta, ok := tbl2.Chunk(id)
		if !ok || !meta.LoadedAll(all) {
			t.Fatalf("chunk %d not fully loaded after recovery: %+v", id, meta)
		}
		if meta.Rows != 8 || meta.RawOff != int64(id*100) || meta.RawLen != 100 {
			t.Errorf("chunk %d geometry: %+v", id, meta)
		}
		if st := meta.Stats[0]; !st.Valid || st.MinInt != int64(id*1000) || st.MaxInt != int64(id*1000+7) {
			t.Errorf("chunk %d stats: %+v", id, st)
		}
		bc, err := s2.ReadChunk(tbl2, id, all)
		if err != nil {
			t.Fatal(err)
		}
		want := fullChunk(t, id, 8)
		for c := 0; c < 3; c++ {
			g, w := bc.Column(c), want.Column(c)
			if g.Len() != w.Len() {
				t.Fatalf("chunk %d col %d: %d rows, want %d", id, c, g.Len(), w.Len())
			}
		}
		if bc.Column(0).IntAt(7) != int64(id*1000+7) {
			t.Errorf("chunk %d data wrong after recovery", id)
		}
	}
	if tbl2.Fingerprint() != testFP {
		t.Errorf("fingerprint = %+v", tbl2.Fingerprint())
	}
}

// TestDurableCheckpointEquivalence verifies a checkpointed manifest recovers
// to the same catalog as an un-checkpointed one, including mutations made
// after the checkpoint.
func TestDurableCheckpointEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	tbl := populate(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the (now empty) log: discovering a
	// chunk journals nothing by itself, its geometry record rides with the
	// statistics — and the already-checkpointed chunks' records do not.
	if err := tbl.EnsureChunk(2, 4, 200, 50); err != nil {
		t.Fatal(err)
	}
	if n := man.AppendsSinceCheckpoint(); n != 0 {
		t.Errorf("discovery alone appended %d records", n)
	}
	if err := tbl.SetChunkStats(2, []int{0}, []ColStats{{Valid: true, Rows: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetChunkStats(1, []int{0}, []ColStats{CollectStats(fullChunk(t, 1, 8).Column(0))}); err != nil {
		t.Fatal(err)
	}
	// Statistics wait for the table's next append.
	if n := man.AppendsSinceCheckpoint(); n != 0 {
		t.Errorf("statistics appended %d records on their own", n)
	}
	if err := tbl.JournalPending(); err != nil {
		t.Fatal(err)
	}
	if n := man.AppendsSinceCheckpoint(); n != 3 {
		t.Errorf("appends since checkpoint = %d, want chunk + stats + stats", n)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	tbl2, ok := s2.Table("t")
	if !ok {
		t.Fatal("table missing after checkpointed recovery")
	}
	if tbl2.NumChunks() != 3 || !tbl2.Complete() {
		t.Errorf("chunks=%d complete=%v", tbl2.NumChunks(), tbl2.Complete())
	}
	if rec := s2.RecoveryStats(); rec.ChunksRecovered != 2 {
		t.Errorf("recovery = %+v", rec)
	}
}

// TestDurableFingerprintChangeInvalidates stages the same table name against
// changed raw bytes: the persisted chunks must be dropped and the pages
// deleted.
func TestDurableFingerprintChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	populate(t, s)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	changed := store.Fingerprint{Size: 1000, CRC: 0x9999}
	tbl2, err := s2.EnsureTable("t", sch3, "raw/t.csv", changed)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumChunks() != 0 || tbl2.Complete() {
		t.Errorf("stale state survived: chunks=%d complete=%v", tbl2.NumChunks(), tbl2.Complete())
	}
	if rec := s2.RecoveryStats(); rec.ChunksInvalidated < 2 {
		t.Errorf("ChunksInvalidated = %d, want >= 2", rec.ChunksInvalidated)
	}
	if pages := s2.Disk().List("db/t/"); len(pages) != 0 {
		t.Errorf("stale pages survived: %v", pages)
	}
	if tbl2.Fingerprint() != changed {
		t.Errorf("fingerprint = %+v", tbl2.Fingerprint())
	}
}

// TestDurablePageBitFlipInvalidatesChunk flips one byte inside a persisted
// page file: recovery must clear exactly that chunk's loaded state (forcing
// re-conversion from raw) and keep the undamaged chunk warm.
func TestDurablePageBitFlipInvalidatesChunk(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	tbl := populate(t, s)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt chunk 1, column 0's page inside the chunk's segment file.
	m1, _ := tbl.Chunk(1)
	g := m1.Groups[0]
	if len(g.Cols) != 1 || g.Cols[0] != 0 {
		t.Fatalf("first group = %+v, want column 0 alone", g)
	}
	page := filepath.Join(dir, "blobs", filepath.FromSlash(segBlob("t", 1, g.Seg)))
	raw, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	raw[g.Off+g.Len/2] ^= 0x01
	if err := os.WriteFile(page, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	tbl2, ok := s2.Table("t")
	if !ok {
		t.Fatal("table missing")
	}
	m0, _ := tbl2.Chunk(0)
	m1, _ = tbl2.Chunk(1)
	if !m0.LoadedAll([]int{0, 1, 2}) {
		t.Errorf("undamaged chunk 0 lost its pages: %+v", m0.Loaded)
	}
	if m1.Loaded[0] {
		t.Error("damaged page still marked loaded")
	}
	if !m1.Loaded[1] || !m1.Loaded[2] {
		t.Errorf("undamaged columns of chunk 1 dropped: %+v", m1.Loaded)
	}
	rec := s2.RecoveryStats()
	if rec.ChunksRecovered != 2 || rec.ChunksInvalidated != 1 {
		t.Errorf("recovery = %+v", rec)
	}
	// Reading the surviving columns still works; the damaged one refuses.
	if _, err := s2.ReadChunk(tbl2, 1, []int{1, 2}); err != nil {
		t.Errorf("surviving columns unreadable: %v", err)
	}
	if _, err := s2.ReadChunk(tbl2, 1, []int{0}); err == nil {
		t.Error("damaged column should not be readable")
	}
}

// TestDurableMissingPageInvalidates deletes a segment file outright: every
// group it held is dropped, the chunk's other segment and the other chunk
// stay warm.
func TestDurableMissingPageInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	tbl, err := s.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		bc := fullChunk(t, id, 8)
		if err := tbl.EnsureChunk(id, 8, int64(id*100), 100); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChunkColumns(tbl, bc, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChunkColumns(tbl, bc, []int{2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	m, _ := tbl.Chunk(0)
	if err := os.Remove(filepath.Join(dir, "blobs", filepath.FromSlash(segBlob("t", 0, m.Groups[0].Seg)))); err != nil {
		t.Fatal(err)
	}
	s2, _ := durableEnv(t, dir)
	tbl2, _ := s2.Table("t")
	m0, _ := tbl2.Chunk(0)
	if m0.Loaded[0] || m0.Loaded[1] {
		t.Errorf("columns of the missing segment still marked loaded: %+v", m0.Loaded)
	}
	if !m0.Loaded[2] {
		t.Errorf("the chunk's other segment dropped: %+v", m0.Loaded)
	}
	if m1, _ := tbl2.Chunk(1); !m1.LoadedAll(allCols3) {
		t.Errorf("untouched chunk dropped: %+v", m1.Loaded)
	}
	if rec := s2.RecoveryStats(); rec.ChunksRecovered != 2 || rec.ChunksInvalidated != 1 {
		t.Errorf("recovery = %+v", rec)
	}
}

// TestDurableTornManifestTail truncates the manifest mid-record: recovery
// keeps the valid prefix and the store stays fully usable.
func TestDurableTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	populate(t, s)
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "manifest.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	rec := s2.RecoveryStats()
	if rec.Replay.TornBytes == 0 {
		t.Error("torn tail not reported")
	}
	// The final record (RecComplete) was damaged; everything before it
	// (both chunks, fully loaded) must survive.
	tbl2, ok := s2.Table("t")
	if !ok {
		t.Fatal("table missing after torn-tail recovery")
	}
	if tbl2.Complete() {
		t.Error("completeness should have been in the torn tail")
	}
	if rec.ChunksRecovered != 2 {
		t.Errorf("ChunksRecovered = %d, want 2", rec.ChunksRecovered)
	}
	// The store keeps working: re-mark complete and read data back.
	if err := tbl2.SetComplete(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ReadChunk(tbl2, 0, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableNonDurableUnaffected checks the nil-journal path: a plain
// NewStore over a simulated disk journals nothing and recovers nothing.
func TestDurableNonDurableUnaffected(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 4, 0, 40); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetComplete(); err != nil {
		t.Fatal(err)
	}
	if rec := s.RecoveryStats(); rec != (RecoveryReport{}) {
		t.Errorf("non-durable store has recovery stats: %+v", rec)
	}
	if err := s.Checkpoint(); err != nil {
		t.Errorf("Checkpoint on non-durable store: %v", err)
	}
}

// TestDurableSchemaSpecRoundTrip pins the schema specification as
// RecTableCreate records store it.
func TestDurableSchemaSpecRoundTrip(t *testing.T) {
	spec := sch3.Spec()
	if spec != "a:BIGINT,b:DOUBLE,c:VARCHAR" {
		t.Errorf("Spec = %q", spec)
	}
	back, err := schema.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(sch3) {
		t.Errorf("round trip lost schema: %s", back)
	}
	if _, err := schema.ParseSpec(""); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := schema.ParseSpec("a"); err == nil {
		t.Error("missing type should fail")
	}
}

// TestDurableTornColGroupRecord injects the crash window the
// data-before-metadata ordering leaves open: a segment reaches the disk but
// the process dies before its RecSegment record is appended. On restart the orphaned page must simply not exist as far as
// the catalog is concerned — the chunk's group is unloaded, reads refuse
// it, and rewriting the group lands cleanly over the orphan.
func TestDurableTornColGroupRecord(t *testing.T) {
	dir := t.TempDir()
	s, man := durableEnv(t, dir)
	tbl, err := s.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnsureChunk(0, 8, 0, 100); err != nil {
		t.Fatal(err)
	}
	bc := fullChunk(t, 0, 8)
	if err := s.WriteChunkColumns(tbl, bc, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "manifest.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The second write makes its segment durable first, then appends the
	// RecSegment record; truncating back to the pre-write size is the
	// crash between those two steps.
	if err := s.WriteChunkColumns(tbl, bc, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	tbl2, err := s2.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.RecoveryStats(); rec.ChunksInvalidated != 0 {
		t.Errorf("orphaned page caused %d invalidations; it should be invisible", rec.ChunksInvalidated)
	}
	meta, ok := tbl2.Chunk(0)
	if !ok {
		t.Fatal("chunk lost")
	}
	if !meta.LoadedAll([]int{0, 1}) {
		t.Error("journaled group lost")
	}
	if meta.LoadedAll([]int{2}) {
		t.Fatal("unjournaled group reported loaded — metadata preceded data?")
	}
	if _, err := s2.ReadChunk(tbl2, 0, []int{0, 1, 2}); err == nil {
		t.Error("read of the unjournaled column should fail, not serve the orphan page")
	}
	// The rewrite path must tolerate the orphan blob already existing.
	if err := s2.WriteChunkColumns(tbl2, fullChunk(t, 0, 8), []int{2}); err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadChunk(tbl2, 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Column(2).Strs[4] != fullChunk(t, 0, 8).Column(2).Strs[4] {
		t.Error("rewritten group serves wrong data")
	}
}
