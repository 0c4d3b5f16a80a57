package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scanraw/internal/wire"
)

func testRecords() []Record {
	return []Record{
		{Type: RecTableCreate, Table: "t", RawFile: "raw/t", Schema: "c0:BIGINT,c1:BIGINT",
			Fingerprint: Fingerprint{Size: 123, CRC: 0xdeadbeef, ModTimeNs: 42}},
		{Type: RecChunk, Table: "t", Chunk: 0, Rows: 64, RawOff: 0, RawLen: 512},
		{Type: RecStats, Table: "t", Chunk: 0, Col: 1, Stats: ColStatsRec{
			Valid: true, Type: 0, MinInt: -3, MaxInt: 900, MinStr: "a", MaxStr: "z", Rows: 64, Distinct: 17}},
		{Type: RecLoaded, Table: "t", Chunk: 0, Cols: []int{0, 1}},
		{Type: RecComplete, Table: "t"},
		{Type: RecSegment, Table: "t", Chunk: 1, Seg: "s0-2", Groups: []SegGroup{
			{Cols: []int{0, 1}, Off: 0, Len: 96}, {Cols: []int{2}, Off: 96, Len: 40}}},
	}
}

func openTestManifest(t *testing.T, dir string) *Manifest {
	t.Helper()
	m, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestManifestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManifest(t, dir)
	got, rep, err := m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("replay = %+v, want %+v", got, recs)
	}
	if rep.LogRecords != len(recs) || rep.TornBytes != 0 || rep.CheckpointRecords != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestManifestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if n := m.AppendsSinceCheckpoint(); n != int64(len(recs)) {
		t.Errorf("AppendsSinceCheckpoint = %d, want %d", n, len(recs))
	}
	if err := m.Checkpoint(recs); err != nil {
		t.Fatal(err)
	}
	if n := m.AppendsSinceCheckpoint(); n != 0 {
		t.Errorf("AppendsSinceCheckpoint after checkpoint = %d", n)
	}
	extra := Record{Type: RecChunk, Table: "t", Chunk: 1, Rows: 64, RawOff: 512, RawLen: 512}
	if err := m.Append(extra); err != nil {
		t.Fatal(err)
	}
	got, rep, err := m.Replay()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), recs...), extra)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
	if rep.CheckpointRecords != len(recs) || rep.LogRecords != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// TestManifestTornTail cuts the log mid-record — the shape a crash during
// an append leaves — and verifies recovery keeps exactly the undamaged
// prefix and physically truncates the rest so later appends are clean.
func TestManifestTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, int64(len(raw)-3)); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManifest(t, dir)
	got, rep, err := m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	want := recs[:len(recs)-1]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay after torn tail = %+v, want %+v", got, want)
	}
	if rep.TornBytes == 0 {
		t.Error("TornBytes = 0, want > 0")
	}
	// The damaged suffix is gone from disk; appending and replaying again
	// yields prefix + new record with a clean report.
	extra := Record{Type: RecComplete, Table: "t2"}
	if err := m2.Append(extra); err != nil {
		t.Fatal(err)
	}
	got, rep, err = m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, append(append([]Record(nil), want...), extra)) {
		t.Errorf("replay after repair = %+v", got)
	}
	if rep.TornBytes != 0 {
		t.Errorf("second replay still torn: %+v", rep)
	}
}

// TestManifestBitFlip corrupts one byte inside the last record's payload
// and verifies only the damaged suffix is dropped — never a panic, never a
// record before the flip.
func TestManifestBitFlip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	if err := os.WriteFile(logPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManifest(t, dir)
	got, rep, err := m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-1 || !reflect.DeepEqual(got, recs[:len(recs)-1]) {
		t.Errorf("replay after bit flip kept %d records, want %d", len(got), len(recs)-1)
	}
	if rep.TornBytes == 0 {
		t.Error("TornBytes = 0, want > 0")
	}
}

// TestManifestBitFlipEveryOffset flips each byte position in turn and
// checks the invariant that matters: replay never panics, never errors, and
// always returns a prefix of the original records.
func TestManifestBitFlipEveryOffset(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	orig, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		flipped := append([]byte(nil), orig...)
		flipped[off] ^= 0xA5
		if err := os.WriteFile(logPath, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		m2, err := OpenManifest(dir)
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		got, _, err := m2.Replay()
		if err != nil {
			t.Fatalf("offset %d: replay: %v", off, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("offset %d: %d records from %d", off, len(got), len(recs))
		}
		if len(got) > 0 && !reflect.DeepEqual(got, recs[:len(got)]) {
			t.Fatalf("offset %d: replay is not a prefix", off)
		}
		m2.Close()
		// Restore for the next offset.
		if err := os.WriteFile(logPath, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestDamagedHeader destroys the log magic: nothing after it can be
// trusted, so recovery resets to an empty log (checkpoint records, if any,
// still replay).
func TestManifestDamagedHeader(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Checkpoint(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(recs[2:]...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManifest(t, dir)
	got, rep, err := m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Errorf("replay = %+v, want checkpoint records only", got)
	}
	if rep.TornBytes != int64(len(raw)) {
		t.Errorf("TornBytes = %d, want %d", rep.TornBytes, len(raw))
	}
	// The log was reset with a fresh header: appends work again.
	if err := m2.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	got, _, err = m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:3]) {
		t.Errorf("replay after reset = %+v", got)
	}
}

// TestManifestCrashBetweenCheckpointSteps models the crash window after the
// checkpoint file is installed but before the log truncates: replay sees
// every record twice, which must be harmless because records are upserts.
func TestManifestCrashBetweenCheckpointSteps(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords()
	m := openTestManifest(t, dir)
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Install the checkpoint by hand, leaving the log untruncated.
	var buf []byte
	buf = append(buf, ckptMagic...)
	for _, r := range recs {
		buf = wire.AppendFrame(buf, EncodeRecord(r))
	}
	if err := os.WriteFile(filepath.Join(dir, ckptFileName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManifest(t, dir)
	got, rep, err := m2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), recs...), recs...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %d records, want duplicated %d", len(got), len(want))
	}
	if rep.CheckpointRecords != len(recs) || rep.LogRecords != len(recs) {
		t.Errorf("report = %+v", rep)
	}
}

func TestManifestClosedErrors(t *testing.T) {
	m := openTestManifest(t, t.TempDir())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(testRecords()[0]); err == nil {
		t.Error("Append on closed manifest should fail")
	}
	if _, _, err := m.Replay(); err == nil {
		t.Error("Replay on closed manifest should fail")
	}
	if err := m.Checkpoint(nil); err == nil {
		t.Error("Checkpoint on closed manifest should fail")
	}
}

// TestManifestSetFailure: an injected failure aborts Append and Checkpoint
// before either touches a file, and clearing the hook restores them.
func TestManifestSetFailure(t *testing.T) {
	dir := t.TempDir()
	m := openTestManifest(t, dir)
	if err := m.Append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	var ops []string
	m.SetFailure(func(op string) error {
		ops = append(ops, op)
		return injected
	})
	if err := m.Append(testRecords()[1]); !errors.Is(err, injected) {
		t.Errorf("Append = %v, want the injected error", err)
	}
	if err := m.Checkpoint(testRecords()); !errors.Is(err, injected) {
		t.Errorf("Checkpoint = %v, want the injected error", err)
	}
	if !reflect.DeepEqual(ops, []string{"append", "checkpoint"}) {
		t.Errorf("hook saw %v", ops)
	}
	m.SetFailure(nil)
	if err := m.Append(testRecords()[4]); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := m.Replay()
	if err != nil || rep.CheckpointRecords != 0 || len(recs) != 2 || recs[1].Type != RecComplete {
		t.Errorf("replay after injected failures = %+v, %+v, %v", recs, rep, err)
	}
}
