package cluster

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/wire"
)

func iv(i int64) engine.Value   { return engine.Value{Typ: schema.Int64, Int: i} }
func fv(f float64) engine.Value { return engine.Value{Typ: schema.Float64, Float: f} }
func sv(s string) engine.Value  { return engine.Value{Typ: schema.Str, Str: s} }

// TestFrameRoundTrip: every message type must survive write → read with
// its payload intact, in stream order.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	rows := [][]engine.Value{
		{iv(1), fv(2.5), sv("abc")},
		{iv(-7), fv(-0.25), sv("")},
	}
	st := ExecStats{
		Scan: scanraw.ScanReport{
			DeliveredCache: 3, DeliveredDB: 4, DeliveredRaw: 5, DeliveredPartial: 8, SkippedChunks: 6,
			WrittenDuringRun: 9, TerminatedEarly: true, ChunksSaved: 7,
		},
		Member:     scanraw.SharedStats{DeliveredChunks: 19, SkippedChunks: 2},
		DurationMS: 1.75,
	}
	if err := fw.Rows(42, rows); err != nil {
		t.Fatal(err)
	}
	if err := fw.Rows(43, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Partial([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Stats(st); err != nil {
		t.Fatal(err)
	}
	if err := fw.Error("boom"); err != nil {
		t.Fatal(err)
	}
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	m, err := fr.Next()
	if err != nil || m.Type != MsgRows || m.Chunk != 42 || !reflect.DeepEqual(m.Rows, rows) {
		t.Fatalf("rows frame: %+v, %v", m, err)
	}
	if m, err = fr.Next(); err != nil || m.Type != MsgRows || m.Chunk != 43 || len(m.Rows) != 0 {
		t.Fatalf("empty rows frame: %+v, %v", m, err)
	}
	if m, err = fr.Next(); err != nil || m.Type != MsgPartial || !bytes.Equal(m.Partial, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("partial frame: %+v, %v", m, err)
	}
	if m, err = fr.Next(); err != nil || m.Type != MsgStats || m.Stats != st {
		t.Fatalf("stats frame: %+v, %v", m, err)
	}
	if m, err = fr.Next(); err != nil || m.Type != MsgError || m.Err != "boom" {
		t.Fatalf("error frame: %+v, %v", m, err)
	}
	if m, err = fr.Next(); err != nil || m.Type != MsgEnd {
		t.Fatalf("end frame: %+v, %v", m, err)
	}
	if _, err = fr.Next(); err != io.EOF {
		t.Fatalf("after end: want io.EOF, got %v", err)
	}
}

// TestFrameRejectsCorruption: torn headers, torn payloads, checksum
// mismatches, and trailing garbage inside a payload must all error.
func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Rows(1, [][]engine.Value{{iv(9), sv("x")}}); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)

	// Truncation at every boundary: a torn header or payload errors; only
	// the empty stream is clean EOF.
	for cut := 0; cut < len(good); cut++ {
		fr := NewFrameReader(bytes.NewReader(good[:cut]))
		_, err := fr.Next()
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: want io.EOF, got %v", err)
			}
			continue
		}
		if err == nil || err == io.EOF {
			t.Fatalf("cut %d: want torn-frame error, got %v", cut, err)
		}
	}

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[wire.FrameHeaderLen+2] ^= 0x40
	if _, err := NewFrameReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// A frame whose payload carries trailing bytes after the message (CRC
	// valid) must be rejected by the message decoder.
	payload := []byte{wireVersion, MsgEnd, 0x00}
	tr := bytes.NewReader(wire.AppendFrame(nil, payload))
	if _, err := NewFrameReader(tr).Next(); err == nil {
		t.Fatal("trailing payload bytes accepted")
	}
}

// TestDecodeMessageTotal: DecodeMessage over arbitrary prefixes of a valid
// payload must error or succeed, never panic.
func TestDecodeMessageTotal(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Rows(3, [][]engine.Value{{iv(1), fv(2), sv("abc")}, {iv(4), fv(5), sv("def")}}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[wire.FrameHeaderLen:]
	for cut := 0; cut <= len(payload); cut++ {
		_, _ = DecodeMessage(payload[:cut]) // must not panic
	}
}

// FuzzDecodeFrameMessage asserts payload-decode totality on arbitrary
// bytes.
func FuzzDecodeFrameMessage(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	_ = fw.Rows(7, [][]engine.Value{{iv(1), sv("k")}})
	f.Add(buf.Bytes()[wire.FrameHeaderLen:])
	var sb bytes.Buffer
	_ = NewFrameWriter(&sb).Stats(ExecStats{Scan: scanraw.ScanReport{DeliveredRaw: 3, DeliveredPartial: 2, WrittenDuringRun: 1}, DurationMS: 0.5})
	f.Add(sb.Bytes()[wire.FrameHeaderLen:])
	f.Add([]byte{wireVersion, MsgEnd})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// A valid decode must re-encode to something decodable (round-trip
		// stability), for the types the writer can produce.
		var rt bytes.Buffer
		fw := NewFrameWriter(&rt)
		switch m.Type {
		case MsgRows:
			if fw.Rows(m.Chunk, m.Rows) == nil {
				if _, err := NewFrameReader(&rt).Next(); err != nil {
					t.Fatalf("re-encoded rows failed to decode: %v", err)
				}
			}
		case MsgStats:
			_ = fw.Stats(m.Stats)
			if _, err := NewFrameReader(&rt).Next(); err != nil {
				t.Fatalf("re-encoded stats failed to decode: %v", err)
			}
		}
	})
}

// TestFleetValidation exercises the config validator's accept and reject
// paths.
func TestFleetValidation(t *testing.T) {
	tables := map[string]TableConfig{"data": {Schema: "c0:int64,c1:int64"}}
	ok := FleetConfig{
		Peers: []PeerConfig{
			{Addr: "w1:8080", Owns: []OwnConfig{{Table: "data", Lo: 0, Hi: 8}}},
			{Addr: "w2:8080", Owns: []OwnConfig{{Table: "data", Lo: 8, Hi: 16}}},
			{Addr: "w3:8080", Owns: []OwnConfig{{Table: "data", Lo: 16, Hi: 0}}},
		},
		Tables: tables,
	}
	f, err := NewFleet(ok)
	if err != nil {
		t.Fatal(err)
	}
	as := f.Assignments("data")
	if len(as) != 3 || as[0].GlobalLo() != 0 || as[1].GlobalLo() != 8 || as[2].GlobalLo() != 16 {
		t.Fatalf("assignments: %v", as)
	}
	if sch, found := f.Schema("data"); !found || sch.NumColumns() != 2 {
		t.Fatalf("schema lookup failed")
	}

	// Replicas: identical tuples on two peers group into one assignment.
	rep := ok
	rep.Peers = append([]PeerConfig(nil), ok.Peers...)
	rep.Peers = append(rep.Peers, PeerConfig{Addr: "w4:8080", Owns: []OwnConfig{{Table: "data", Lo: 8, Hi: 16}}})
	f, err = NewFleet(rep)
	if err != nil {
		t.Fatal(err)
	}
	as = f.Assignments("data")
	if len(as) != 3 || len(as[1].Peers) != 2 {
		t.Fatalf("replica grouping: %v", as)
	}

	// Split-files deployment: whole local files placed by base.
	split := FleetConfig{
		Peers: []PeerConfig{
			{Addr: "w1:8080", Owns: []OwnConfig{{Table: "data", Base: 0}}},
			{Addr: "w2:8080", Owns: []OwnConfig{{Table: "data", Base: 8}}},
		},
		Tables: tables,
	}
	if _, err := NewFleet(split); err == nil {
		t.Fatal("unbounded shard followed by another accepted (overlap undetectable)")
	}
	split.Peers[0].Owns[0].Hi = 8
	if _, err := NewFleet(split); err != nil {
		t.Fatalf("bounded split rejected: %v", err)
	}

	bad := []FleetConfig{
		{Tables: tables}, // no peers
		{Peers: []PeerConfig{{Addr: ""}}, Tables: tables},
		{Peers: []PeerConfig{{Addr: "a"}, {Addr: "a"}}, Tables: tables},
		{Peers: []PeerConfig{{Addr: "a", Owns: []OwnConfig{{Table: "nope"}}}}, Tables: tables},
		{Peers: []PeerConfig{{Addr: "a", Owns: []OwnConfig{{Table: "data", Lo: 5, Hi: 3}}}}, Tables: tables},
		{Peers: []PeerConfig{{Addr: "a", Owns: []OwnConfig{{Table: "data", Lo: -1}}}}, Tables: tables},
		{Peers: []PeerConfig{ // overlapping shards
			{Addr: "a", Owns: []OwnConfig{{Table: "data", Lo: 0, Hi: 10}}},
			{Addr: "b", Owns: []OwnConfig{{Table: "data", Lo: 5, Hi: 15}}},
		}, Tables: tables},
		{Peers: []PeerConfig{{Addr: "a", Owns: []OwnConfig{{Table: "data"}}}},
			Tables: map[string]TableConfig{"data": {Schema: "justaname"}}}, // bad schema spec
	}
	for i, cfg := range bad {
		if _, err := NewFleet(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}

	// JSON round-trip through ParseFleet.
	if _, err := ParseFleet([]byte(`{"peers":[{"addr":"w1","owns":[{"table":"data","lo":0,"hi":0}]}],"tables":{"data":{"schema":"c0:int64"}}}`)); err != nil {
		t.Fatalf("ParseFleet: %v", err)
	}
	if _, err := ParseFleet([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestPeerErrorRetryable pins the retry policy: shedding and server-side
// failures retry, deterministic rejections do not.
func TestPeerErrorRetryable(t *testing.T) {
	cases := []struct {
		status int
		want   bool
	}{
		{0, true}, {429, true}, {500, true}, {502, true},
		{400, false}, {404, false}, {499, false},
	}
	for _, c := range cases {
		pe := &PeerError{Addr: "w", Status: c.status, Err: fmt.Errorf("x")}
		if pe.Retryable() != c.want {
			t.Errorf("status %d: Retryable=%v, want %v", c.status, pe.Retryable(), c.want)
		}
	}
}
