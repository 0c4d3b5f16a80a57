package store

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// checkGolden compares got against a hex fixture (whitespace ignored). The
// fixtures in this file were captured from the code as of PR 15, before the
// codecs moved onto internal/wire: a test that encodes and decodes with the
// same code revision cannot see format drift, frozen bytes can.
func checkGolden(t *testing.T, name, fixture string, got []byte) {
	t.Helper()
	if g := hex.EncodeToString(got); g != strings.Join(strings.Fields(fixture), "") {
		t.Errorf("%s: bytes differ from the fixture\n got %s", name, g)
	}
}

const goldenManifestLog = `
534352574c4f47313f000000e5f376e1010174107261772f646f6e6ec3a96573
2e6373761e63303a424947494e542c63313a444f55424c452c63323a56415243
484152808080808040effdb6f50d530f0000001f2eda3b020174038080048080
8080408080403b00000085b16cab03017403010101ffffffffffffffffff01fe
ffffffffffffffff01000000000000f0ff010000000000f87f000a7ac39fe6b0
b4f09f9c81808008221c000000b55d258d030000000000000000000000000000
00000000000000f07f00000000080000004d87b7e40401740303000102030000
007bce5bfe0501740b0000002a3c486d060174808080800401ff7f0500000038
1f0dc006017400002c000000de255e5d07017405000000000000000000000000
0000e03f010000000000f87f000000000000f07f59f3f8c21f6ea581
`

const goldenCheckpoint = `
53435257434b50313f000000e5f376e1010174107261772f646f6e6ec3a96573
2e6373761e63303a424947494e542c63313a444f55424c452c63323a56415243
484152808080808040effdb6f50d530f0000001f2eda3b020174038080048080
8080408080403b00000085b16cab03017403010101ffffffffffffffffff01fe
ffffffffffffffff01000000000000f0ff010000000000f87f000a7ac39fe6b0
b4f09f9c81808008221c000000b55d258d030000000000000000000000000000
00000000000000f07f00000000080000004d87b7e40401740303000102030000
007bce5bfe0501740b0000002a3c486d060174808080800401ff7f0500000038
1f0dc006017400002c000000de255e5d07017405000000000000000000000000
0000e03f010000000000f87f000000000000f07f59f3f8c21f6ea581
`

// goldenSegmentLog pins RecSegment, the record type added after the
// fixtures above were captured: they stay byte for byte what the PR 15 code
// wrote (old manifests must replay), the new type gets its own.
const goldenSegmentLog = `
534352574c4f47312b00000052f8310a080174030c73302d322e352e31363338
3303030001020084800c010584800c0401ff7f88800cf8fff3ff07090000006f
9b2c4808008080808004000016000000dc21175e0808646f6e6ec3a965730004
67302d3101020001004d
`

// goldenSegmentRecords: a three-group segment (a run, a singleton, the
// largest ordinal; offsets from 0 to the decode limit), a segment with no
// groups and an empty name, and a pre-segment blob re-recorded whole.
func goldenSegmentRecords() []Record {
	return []Record{
		{Type: RecSegment, Table: "t", Chunk: 3, Seg: "s0-2.5.16383", Groups: []SegGroup{
			{Cols: []int{0, 1, 2}, Off: 0, Len: 196612},
			{Cols: []int{5}, Off: 196612, Len: 4},
			{Cols: []int{16383}, Off: 196616, Len: 1<<31 - 196616},
		}},
		{Type: RecSegment, Table: "", Chunk: 1 << 30},
		{Type: RecSegment, Table: "données", Chunk: 0, Seg: "g0-1", Groups: []SegGroup{{Cols: []int{0, 1}, Len: 77}}},
	}
}

// goldenRecords is one record of every RecType that existed at PR 15, carrying every scalar
// shape the record codec has: negative and large varints, NaN and ±Inf
// floats (compared by bits through the byte fixture), empty and multi-byte
// UTF-8 strings, empty and non-empty lists.
func goldenRecords() []Record {
	return []Record{
		{Type: RecTableCreate, Table: "t", RawFile: "raw/données.csv", Schema: "c0:BIGINT,c1:DOUBLE,c2:VARCHAR",
			Fingerprint: Fingerprint{Size: 1 << 40, CRC: 0xdeadbeef, ModTimeNs: -42}},
		{Type: RecChunk, Table: "t", Chunk: 3, Rows: 65536, RawOff: 1 << 33, RawLen: 524288},
		{Type: RecStats, Table: "t", Chunk: 3, Col: 1, Stats: ColStatsRec{
			Valid: true, Type: 1, MinInt: math.MinInt64, MaxInt: math.MaxInt64,
			MinFloat: math.Inf(-1), MaxFloat: math.NaN(), MinStr: "", MaxStr: "zß水🜁", Rows: 65536, Distinct: 17}},
		{Type: RecStats, Table: "", Chunk: 0, Col: 0, Stats: ColStatsRec{MaxFloat: math.Inf(1)}},
		{Type: RecLoaded, Table: "t", Chunk: 3, Cols: []int{0, 1, 2}},
		{Type: RecComplete, Table: "t"},
		{Type: RecLoadedGroup, Table: "t", Chunk: 1 << 30, Cols: []int{16383}},
		{Type: RecLoadedGroup, Table: "t", Chunk: 0},
		{Type: RecWorkload, Table: "t", Weights: []float64{0, 0.5, math.NaN(), math.Inf(1), -1e-300}},
	}
}

func appendTo(t *testing.T, dir string, recs []Record) []byte {
	t.Helper()
	m, err := OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenManifestBytes pins the manifest's on-disk bytes — magic, frame
// header, CRC, record payload — for the log and the checkpoint, and checks
// that what replays from them re-encodes to the same bytes.
func TestGoldenManifestBytes(t *testing.T) {
	recs := goldenRecords()
	seen := map[RecType]bool{}
	for _, r := range append(goldenSegmentRecords(), recs...) {
		seen[r.Type] = true
	}
	for ty := RecTableCreate; !strings.HasPrefix(ty.String(), "RecType("); ty++ {
		if !seen[ty] {
			t.Errorf("no golden record of type %v", ty)
		}
	}

	dir := t.TempDir()
	log := appendTo(t, dir, recs)
	checkGolden(t, "manifest log", goldenManifestLog, log)

	m := openTestManifest(t, dir)
	replayed, rep, err := m.Replay()
	if err != nil || rep.TornBytes != 0 || len(replayed) != len(recs) {
		t.Fatalf("replay: %d records, %+v, %v", len(replayed), rep, err)
	}
	for i := range recs {
		if !recordsBitEqual(replayed[i], recs[i]) {
			t.Errorf("record %d replayed as %+v, want %+v", i, replayed[i], recs[i])
		}
	}
	checkGolden(t, "re-encoded manifest log", goldenManifestLog, appendTo(t, t.TempDir(), replayed))

	if err := m.Checkpoint(replayed); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, ckptFileName))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint", goldenCheckpoint, ckpt)

	segs := goldenSegmentRecords()
	dir = t.TempDir()
	checkGolden(t, "segment log", goldenSegmentLog, appendTo(t, dir, segs))
	replayed, rep, err = openTestManifest(t, dir).Replay()
	if err != nil || rep.TornBytes != 0 || !reflect.DeepEqual(replayed, segs) {
		t.Fatalf("segment replay: %+v, %+v, %v", replayed, rep, err)
	}
}

// TestRecordStringLimit: a string of exactly the decode limit round-trips;
// one byte more encodes but is rejected on decode.
func TestRecordStringLimit(t *testing.T) {
	const limit = 1 << 18
	at := Record{Type: RecComplete, Table: strings.Repeat("x", limit)}
	got, err := DecodeRecord(EncodeRecord(at))
	if err != nil || got.Table != at.Table {
		t.Fatalf("string at the limit: %v", err)
	}
	past := Record{Type: RecComplete, Table: strings.Repeat("x", limit+1)}
	if _, err := DecodeRecord(EncodeRecord(past)); err == nil {
		t.Fatal("string one past the limit decoded")
	}
}
