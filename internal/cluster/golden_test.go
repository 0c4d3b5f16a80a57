package cluster

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"strings"
	"testing"

	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
)

// checkGolden compares got against a hex fixture (whitespace ignored). The
// fixtures in this file were captured from the code as of PR 15, before the
// codecs moved onto internal/wire: a test that encodes and decodes with the
// same code revision cannot see format drift, frozen bytes can. The stats
// frame was re-captured when it began carrying the whole scan report and
// the shard query's own counts.
func checkGolden(t *testing.T, name, fixture string, got []byte) {
	t.Helper()
	if g := hex.EncodeToString(got); g != strings.Join(strings.Fields(fixture), "") {
		t.Errorf("%s: bytes differ from the fixture\n got %s", name, g)
	}
}

const goldenExecFrames = `
64000000b97846f40101ffffffff030503000001000000000000044002036162
630300ffffffffffffffffff0101010000000000f87f02000300feffffffffff
ffffff0101000000000000f07f021268c3a96c6c6f20e4b896e7958c20f09f9c
810101000000000000f0ff0004000000017363300101000008000000351ebb33
01020102deadbeef1a0000001713edec0103039003d086030806ac0207eb8903
0901000000000000fc3f110000005522d52401040e626f6f6d3a20d184d0b0d0
b9d0bb02000000b9fb32d70105
`

// goldenStream writes one message of every type through a FrameWriter.
func goldenStream(t *testing.T, msgs []*Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, m := range msgs {
		var err error
		switch m.Type {
		case MsgRows:
			err = fw.Rows(m.Chunk, m.Rows)
		case MsgPartial:
			err = fw.Partial(m.Partial)
		case MsgStats:
			err = fw.Stats(m.Stats)
		case MsgError:
			err = fw.Error(m.Err)
		case MsgEnd:
			err = fw.End()
		default:
			t.Fatalf("message type %d has no writer", m.Type)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGoldenExecFrames pins the /exec stream's bytes — frame header, CRC,
// version byte, message payload — for every message type, and checks that
// the decoded messages re-encode to the same bytes (so NaN compares by
// bits).
func TestGoldenExecFrames(t *testing.T) {
	msgs := []*Message{
		{Type: MsgRows, Chunk: 1<<30 - 1, Rows: [][]engine.Value{
			{iv(0), fv(2.5), sv("abc")},
			{iv(math.MinInt64), fv(math.NaN()), sv("")},
			{iv(math.MaxInt64), fv(math.Inf(1)), sv("héllo 世界 🜁")},
			{fv(math.Inf(-1))},
			{},
		}},
		{Type: MsgRows, Chunk: 0},
		{Type: MsgPartial, Partial: []byte{1, 2, 0xde, 0xad, 0xbe, 0xef}},
		{Type: MsgStats, Stats: ExecStats{
			Scan: scanraw.ScanReport{
				DeliveredCache: 3, DeliveredDB: 400, DeliveredRaw: 50000, DeliveredPartial: 8, SkippedChunks: 6,
				WrittenDuringRun: 300, TerminatedEarly: true, ChunksSaved: 7,
			},
			Member:     scanraw.SharedStats{DeliveredChunks: 50411, SkippedChunks: 9},
			DurationMS: 1.75,
		}},
		{Type: MsgError, Err: "boom: файл"},
		{Type: MsgEnd},
	}
	seen := map[byte]bool{}
	for _, m := range msgs {
		seen[m.Type] = true
	}
	for ty := byte(MsgRows); ty <= MsgEnd; ty++ {
		if !seen[ty] {
			t.Errorf("no golden message of type %d", ty)
		}
	}

	stream := goldenStream(t, msgs)
	checkGolden(t, "exec frames", goldenExecFrames, stream)

	fr := NewFrameReader(bytes.NewReader(stream))
	var decoded []*Message
	for {
		m, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, m)
	}
	if len(decoded) != len(msgs) {
		t.Fatalf("decoded %d messages, wrote %d", len(decoded), len(msgs))
	}
	checkGolden(t, "re-encoded exec frames", goldenExecFrames, goldenStream(t, decoded))
}

// TestFrameStringLimit: a string of exactly the decode limit round-trips;
// one byte more encodes but is rejected on decode.
func TestFrameStringLimit(t *testing.T) {
	const limit = 1 << 18
	for _, n := range []int{limit, limit + 1} {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Rows(0, [][]engine.Value{{sv(strings.Repeat("x", n))}}); err != nil {
			t.Fatal(err)
		}
		m, err := NewFrameReader(&buf).Next()
		if n == limit && (err != nil || len(m.Rows[0][0].Str) != n) {
			t.Fatalf("string at the limit: %v", err)
		}
		if n > limit && err == nil {
			t.Fatal("string one past the limit decoded")
		}
	}
}
