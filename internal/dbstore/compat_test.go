package dbstore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/store"
)

// prePR8Fixture is the checked-in on-disk state written by the store before
// column-group pages existed: one page blob per (chunk, column) under the
// bare-ordinal name, and a manifest whose loaded-markers are plain
// RecLoaded records. The compat tests open this directory (via a scratch
// copy), so the current decoder is exercised against frozen bytes — format
// drift cannot hide behind helpers that encode and decode with the same
// code revision.
const prePR8Fixture = "testdata/prepr8"

// writePrePR8Layout builds the legacy layout by hand: the byte formats
// (sealed pages, manifest framing) are unchanged since then, only the
// page naming and record types moved on. Run with REGEN_PREPR8=1 to
// regenerate the fixture; the committed bytes are the contract.
func writePrePR8Layout(t *testing.T, dir string) {
	t.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	recs := []store.Record{{
		Type: store.RecTableCreate, Table: "legacy",
		RawFile: "raw/legacy.csv", Schema: sch3.Spec(), Fingerprint: testFP,
	}}
	for id := 0; id < 2; id++ {
		bc := fullChunk(t, id, 8)
		recs = append(recs, store.Record{
			Type: store.RecChunk, Table: "legacy",
			Chunk: id, Rows: 8, RawOff: int64(id * 100), RawLen: 100,
		})
		for c := 0; c < sch3.NumColumns(); c++ {
			page := sealPage(chunk.EncodeVector(bc.Column(c)))
			if err := fd.WriteBlob(segBlob("legacy", id, barePageSeg(c)), page); err != nil {
				t.Fatal(err)
			}
		}
		recs = append(recs, store.Record{
			Type: store.RecLoaded, Table: "legacy", Chunk: id, Cols: []int{0, 1, 2},
		})
	}
	recs = append(recs,
		store.Record{
			Type: store.RecStats, Table: "legacy", Chunk: 0, Col: 0,
			Stats: store.ColStatsRec{Valid: true, MinInt: 0, MaxInt: 7, Rows: 8, Distinct: 8},
		},
		store.Record{Type: store.RecComplete, Table: "legacy"},
	)
	if err := man.Append(recs...); err != nil {
		t.Fatal(err)
	}
}

func TestRegenPrePR8Fixture(t *testing.T) {
	if os.Getenv("REGEN_PREPR8") == "" {
		t.Skip("set REGEN_PREPR8=1 to regenerate the pre-colgroup fixture")
	}
	if err := os.RemoveAll(prePR8Fixture); err != nil {
		t.Fatal(err)
	}
	writePrePR8Layout(t, prePR8Fixture)
}

// copyTree copies the fixture into a scratch dir: recovery rewrites the
// manifest, and the checked-in bytes must stay pristine.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartPrePR8Fixture opens the frozen pre-colgroup directory: the
// per-column pages must recover as bare one-group segments, serve
// byte-identical data, and coexist with chunks written as segments —
// including across a checkpoint, which must preserve the bare marking.
func TestWarmStartPrePR8Fixture(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, prePR8Fixture, dir)

	s, man := durableEnv(t, dir)
	tbl, err := s.EnsureTable("legacy", sch3, "raw/legacy.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.RecoveryStats()
	if rec.ChunksRecovered != 2 || rec.ChunksInvalidated != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	all := []int{0, 1, 2}
	for id := 0; id < 2; id++ {
		meta, ok := tbl.Chunk(id)
		if !ok || !meta.LoadedAll(all) {
			t.Fatalf("chunk %d not loaded from fixture: %+v", id, meta)
		}
		if len(meta.Groups) == 0 || !meta.Groups[0].Bare {
			t.Fatalf("chunk %d groups not marked bare: %+v", id, meta.Groups)
		}
		bc, err := s.ReadChunk(tbl, id, all)
		if err != nil {
			t.Fatal(err)
		}
		want := fullChunk(t, id, 8)
		if bc.Column(0).IntAt(7) != want.Column(0).IntAt(7) || bc.Column(2).Strs[3] != want.Column(2).Strs[3] {
			t.Errorf("chunk %d data differs from fixture", id)
		}
	}
	if st, ok := tbl.Chunk(0); !ok || !st.Stats[0].Valid || st.Stats[0].MaxInt != 7 {
		t.Error("fixture stats lost")
	}
	if !tbl.Complete() {
		t.Error("fixture completeness lost")
	}

	// Grow the table with the current layout: a segment of width-2 group
	// pages next to the per-column blobs.
	s.SetGroupWidth(2)
	if err := tbl.EnsureChunk(2, 8, 200, 100); err != nil {
		t.Fatal(err)
	}
	if err := writeAll(s, tbl, fullChunk(t, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableEnv(t, dir)
	tbl2, err := s2.EnsureTable("legacy", sch3, "raw/legacy.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.RecoveryStats(); rec.ChunksRecovered != 3 || rec.ChunksInvalidated != 0 {
		t.Fatalf("mixed-layout recovery = %+v", rec)
	}
	for id := 0; id < 3; id++ {
		meta, ok := tbl2.Chunk(id)
		if !ok || !meta.LoadedAll(all) {
			t.Fatalf("chunk %d not loaded after mixed-layout restart: %+v", id, meta)
		}
		wantBare := id < 2
		if meta.Groups[0].Bare != wantBare {
			t.Errorf("chunk %d bare = %v through checkpoint, want %v", id, meta.Groups[0].Bare, wantBare)
		}
		bc, err := s2.ReadChunk(tbl2, id, all)
		if err != nil {
			t.Fatal(err)
		}
		if bc.Column(0).IntAt(0) != int64(id*1000) {
			t.Errorf("chunk %d data wrong after mixed-layout restart", id)
		}
	}
}

// TestWarmStartPrePR8CorruptPageInvalidates damages one legacy per-column
// page in the fixture copy: recovery must cleanly invalidate that chunk
// (no panic, no bad bytes served) and keep the rest.
func TestWarmStartPrePR8CorruptPageInvalidates(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, prePR8Fixture, dir)
	victim := filepath.Join(dir, "blobs", "db", "legacy", "00000001", "0001")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := durableEnv(t, dir)
	tbl, err := s.EnsureTable("legacy", sch3, "raw/legacy.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.RecoveryStats()
	if rec.ChunksInvalidated != 1 {
		t.Fatalf("ChunksInvalidated = %d, want 1", rec.ChunksInvalidated)
	}
	all := []int{0, 1, 2}
	if meta, ok := tbl.Chunk(1); ok && meta.LoadedAll(all) {
		t.Error("chunk with damaged page still reports loaded")
	}
	if meta, ok := tbl.Chunk(0); !ok || !meta.LoadedAll(all) {
		t.Error("undamaged chunk lost")
	}
	if _, err := s.ReadChunk(tbl, 0, all); err != nil {
		t.Fatal(err)
	}
}

// pr15Fixture is a data directory written by the code as of PR 15, before
// the byte codecs moved into internal/wire and before segments: checkpoint +
// manifest log + one width-2 group page per blob for one 4-chunk table, its
// workload weights and a sealed fleet blob. writePR15Layout rebuilds that
// layout by hand from the current encoders — the write path has moved on to
// segments, the byte formats (page seal, group page, record frames) have not
// — so the test below can still demand the very same bytes.
const pr15Fixture = "testdata/pr15"

var pr15Fleet = []byte(`{"peers":["a:1","b:2"]}`)

func writePR15Layout(t *testing.T, dir string) {
	t.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	// load writes chunk id's two group pages and returns the records the PR 15
	// code journaled for it: geometry, statistics, one loaded-group per page.
	load := func(id int) []store.Record {
		bc := fullChunk(t, id, 8)
		recs := []store.Record{{
			Type: store.RecChunk, Table: "t",
			Chunk: id, Rows: 8, RawOff: int64(id * 100), RawLen: 100,
		}}
		for c, st := range allStats(bc) {
			recs = append(recs, store.Record{Type: store.RecStats, Table: "t", Chunk: id, Col: c, Stats: statsToRec(st)})
		}
		for _, g := range [][]int{{0, 1}, {2}} {
			payload, err := encodeGroupPage(bc, g)
			if err != nil {
				t.Fatal(err)
			}
			if err := fd.WriteBlob(segBlob("t", id, groupPageSeg(g)), sealPage(payload)); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, store.Record{Type: store.RecLoadedGroup, Table: "t", Chunk: id, Cols: g})
		}
		return recs
	}
	ckpt := []store.Record{{
		Type: store.RecTableCreate, Table: "t",
		RawFile: "raw/t.csv", Schema: sch3.Spec(), Fingerprint: testFP,
	}}
	ckpt = append(ckpt, load(0)...)
	ckpt = append(ckpt, load(1)...)
	ckpt = append(ckpt, store.Record{Type: store.RecWorkload, Table: "t", Weights: []float64{3, 0.5, 0}})
	if err := man.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	log := append(load(2), load(3)...)
	log = append(log, store.Record{Type: store.RecComplete, Table: "t"})
	if err := man.Append(log...); err != nil {
		t.Fatal(err)
	}
	if err := NewStore(fd).SaveFleetConfig(pr15Fleet); err != nil {
		t.Fatal(err)
	}
}

// readTree returns every file under root keyed by its relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestWarmStartPR15Fixture opens the frozen directory: every chunk must
// recover warm — loaded, checksums intact, zero torn bytes in checkpoint
// and log — with its data, statistics, workload and fleet blob, and the
// current encoders must reproduce the directory byte for byte.
func TestWarmStartPR15Fixture(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.RemoveAll(pr15Fixture); err != nil {
			t.Fatal(err)
		}
		writePR15Layout(t, pr15Fixture)
	}
	dir := t.TempDir()
	copyTree(t, pr15Fixture, dir)
	s, _ := durableEnv(t, dir)
	rec := s.RecoveryStats()
	if rec.TablesRecovered != 1 || rec.ChunksRecovered != 4 || rec.ChunksInvalidated != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if rp := rec.Replay; rp.TornBytes != 0 || rp.CheckpointTornBytes != 0 || rp.CheckpointRecords == 0 || rp.LogRecords == 0 {
		t.Fatalf("replay = %+v", rp)
	}
	tbl, err := s.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Complete() || !tbl.FullyLoaded() || tbl.NumChunks() != 4 {
		t.Fatalf("complete=%v loaded=%v chunks=%d", tbl.Complete(), tbl.FullyLoaded(), tbl.NumChunks())
	}
	all := []int{0, 1, 2}
	for id := 0; id < 4; id++ {
		bc, err := s.ReadChunk(tbl, id, all)
		if err != nil {
			t.Fatal(err)
		}
		want := fullChunk(t, id, 8)
		meta, _ := tbl.Chunk(id)
		for _, c := range all {
			if !bytes.Equal(chunk.EncodeVector(bc.Column(c)), chunk.EncodeVector(want.Column(c))) {
				t.Errorf("chunk %d column %d differs from what was written", id, c)
			}
			if meta.Stats[c] != CollectStats(want.Column(c)) {
				t.Errorf("chunk %d column %d stats = %+v", id, c, meta.Stats[c])
			}
		}
	}
	if w := s.Workload("t"); len(w) != 3 || w[0] != 3 || w[1] != 0.5 || w[2] != 0 {
		t.Errorf("workload = %v", w)
	}
	if data, ok, err := s.LoadFleetConfig(); err != nil || !ok || !bytes.Equal(data, pr15Fleet) {
		t.Errorf("fleet blob = %q, %v, %v", data, ok, err)
	}

	fresh := t.TempDir()
	writePR15Layout(t, fresh)
	want, got := readTree(t, pr15Fixture), readTree(t, fresh)
	if len(got) != len(want) {
		t.Errorf("current code writes %d files, fixture has %d", len(got), len(want))
	}
	for name, p := range want {
		if !bytes.Equal(got[name], p) {
			t.Errorf("%s: current code writes %x, fixture has %x", name, got[name], p)
		}
	}
}

// TestWarmStartMixedLayoutChunk splits one chunk across the layouts: columns
// 0-1 in a PR 15 group-page blob, column 2 written by the current code into a
// segment. The chunk must read whole, and the catalog must come back the same
// from the journal alone and from a checkpoint (snapshotRecords → replay).
func TestWarmStartMixedLayoutChunk(t *testing.T) {
	dir := t.TempDir()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	bc := fullChunk(t, 0, 8)
	payload, err := encodeGroupPage(bc, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.WriteBlob(segBlob("t", 0, groupPageSeg([]int{0, 1})), sealPage(payload)); err != nil {
		t.Fatal(err)
	}
	err = man.Append(
		store.Record{Type: store.RecTableCreate, Table: "t", RawFile: "raw/t.csv", Schema: sch3.Spec(), Fingerprint: testFP},
		store.Record{Type: store.RecChunk, Table: "t", Chunk: 0, Rows: 8, RawLen: 100},
		store.Record{Type: store.RecLoadedGroup, Table: "t", Chunk: 0, Cols: []int{0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	s, man := durableEnv(t, dir)
	tbl, _ := s.Table("t")
	if err := writeAll(s, tbl, bc); err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.Chunk(0)
	if len(want.Groups) != 2 || want.Groups[0].Seg != "g0-1" || want.Groups[1].Seg != "c00000000" || !want.LoadedAll(allCols3) {
		t.Fatalf("mixed chunk = %+v", want)
	}
	check := func(when string, s *Store) {
		t.Helper()
		tbl, _ := s.Table("t")
		if rec := s.RecoveryStats(); rec.ChunksRecovered != 1 || rec.ChunksInvalidated != 0 {
			t.Fatalf("%s: recovery = %+v", when, rec)
		}
		if got, _ := tbl.Chunk(0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: catalog = %+v, want %+v", when, got, want)
		}
		got, err := s.ReadChunk(tbl, 0, allCols3)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, c := range allCols3 {
			if !bytes.Equal(chunk.EncodeVector(got.Column(c)), chunk.EncodeVector(bc.Column(c))) {
				t.Errorf("%s: column %d differs from what was written", when, c)
			}
		}
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	s, man = durableEnv(t, dir)
	check("from the journal", s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ = durableEnv(t, dir)
	if rp := s.RecoveryStats().Replay; rp.CheckpointRecords == 0 || rp.LogRecords != 0 {
		t.Fatalf("replay = %+v, want everything from the checkpoint", rp)
	}
	check("from the checkpoint", s)
}

// chunkSegFixture is the frozen data-dir of the per-chunk segment layout the
// store wrote before group commit: one blob db/t/<chunk>/s<key> per chunk
// write, its group pages back to back, named by a RecSegment of that chunk.
// Chunk 3 holds columns 0-1 only, so a current write lands next to a legacy
// segment.
const chunkSegFixture = "testdata/chunkseg"

func writeChunkSegLayout(t *testing.T, dir string) {
	t.Helper()
	fd, err := store.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	// load writes chunk id's segment of the listed groups and returns the
	// records the per-chunk segment code journaled for it: geometry,
	// statistics, segment.
	load := func(id int, groups [][]int) []store.Record {
		bc := fullChunk(t, id, 8)
		recs := []store.Record{{
			Type: store.RecChunk, Table: "t",
			Chunk: id, Rows: 8, RawOff: int64(id * 100), RawLen: 100,
		}}
		for c, st := range allStats(bc) {
			recs = append(recs, store.Record{Type: store.RecStats, Table: "t", Chunk: id, Col: c, Stats: statsToRec(st)})
		}
		var cols []int
		for _, g := range groups {
			cols = append(cols, g...)
		}
		seg := "s" + EncodeColGroupKey(cols)
		blob, locs, err := buildSegment(bc, seg, groups)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.WriteBlob(segBlob("t", id, seg), blob); err != nil {
			t.Fatal(err)
		}
		rec := store.Record{Type: store.RecSegment, Table: "t", Chunk: id, Seg: seg}
		for _, g := range locs {
			rec.Groups = append(rec.Groups, store.SegGroup{Cols: g.Cols, Off: g.Off, Len: g.Len})
		}
		return append(recs, rec)
	}
	full := [][]int{{0, 1}, {2}}
	ckpt := []store.Record{{
		Type: store.RecTableCreate, Table: "t",
		RawFile: "raw/t.csv", Schema: sch3.Spec(), Fingerprint: testFP,
	}}
	ckpt = append(ckpt, load(0, full)...)
	ckpt = append(ckpt, load(1, full)...)
	if err := man.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	log := append(load(2, full), load(3, [][]int{{0, 1}})...)
	log = append(log, store.Record{Type: store.RecComplete, Table: "t"})
	if err := man.Append(log...); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartChunkSegFixture opens the frozen per-chunk segment layout: every
// chunk recovers warm and reads back byte-identical, a commit of the current
// code completes chunk 3 beside its legacy segment, and the catalog comes back
// the same from the journal and from a checkpoint. The current encoders must
// still reproduce the fixture byte for byte.
func TestWarmStartChunkSegFixture(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.RemoveAll(chunkSegFixture); err != nil {
			t.Fatal(err)
		}
		writeChunkSegLayout(t, chunkSegFixture)
	}
	dir := t.TempDir()
	copyTree(t, chunkSegFixture, dir)
	s, man := durableEnv(t, dir)
	rec := s.RecoveryStats()
	if rec.TablesRecovered != 1 || rec.ChunksRecovered != 4 || rec.ChunksInvalidated != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	tbl, err := s.EnsureTable("t", sch3, "raw/t.csv", testFP)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.FullyLoaded() || tbl.CountLoaded(allCols3) != 3 {
		t.Fatalf("loaded = %d chunks, want chunks 0-2 whole and chunk 3 in part", tbl.CountLoaded(allCols3))
	}
	if err := writeAll(s, tbl, fullChunk(t, 3, 8)); err != nil {
		t.Fatal(err)
	}
	m3, _ := tbl.Chunk(3)
	if len(m3.Groups) != 2 || m3.Groups[0].Seg != "s0-1" || m3.Groups[1].Seg != "c00000000" {
		t.Fatalf("chunk 3 groups = %+v, want the legacy segment and one commit", m3.Groups)
	}
	var want []*ChunkMeta
	for id := 0; id < 4; id++ {
		m, _ := tbl.Chunk(id)
		want = append(want, m)
	}
	check := func(when string, s *Store) {
		t.Helper()
		tbl, _ := s.Table("t")
		if rec := s.RecoveryStats(); rec.ChunksRecovered != 4 || rec.ChunksInvalidated != 0 {
			t.Fatalf("%s: recovery = %+v", when, rec)
		}
		if !tbl.FullyLoaded() {
			t.Fatalf("%s: table not fully loaded", when)
		}
		for id := 0; id < 4; id++ {
			if got, _ := tbl.Chunk(id); !reflect.DeepEqual(got, want[id]) {
				t.Errorf("%s: chunk %d catalog = %+v, want %+v", when, id, got, want[id])
			}
			bc, err := s.ReadChunk(tbl, id, allCols3)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			ref := fullChunk(t, id, 8)
			for _, c := range allCols3 {
				if !bytes.Equal(chunk.EncodeVector(bc.Column(c)), chunk.EncodeVector(ref.Column(c))) {
					t.Errorf("%s: chunk %d column %d differs from what was written", when, id, c)
				}
			}
		}
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	s, man = durableEnv(t, dir)
	check("from the journal", s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ = durableEnv(t, dir)
	check("from the checkpoint", s)

	fresh := t.TempDir()
	writeChunkSegLayout(t, fresh)
	wantFiles, gotFiles := readTree(t, chunkSegFixture), readTree(t, fresh)
	if len(gotFiles) != len(wantFiles) {
		t.Errorf("current code writes %d files, fixture has %d", len(gotFiles), len(wantFiles))
	}
	for name, p := range wantFiles {
		if !bytes.Equal(gotFiles[name], p) {
			t.Errorf("%s: current code writes %x, fixture has %x", name, gotFiles[name], p)
		}
	}
}
