package store

import (
	"math"
	"reflect"
	"testing"

	"scanraw/internal/wire"
)

// recordsBitEqual compares records with bitwise float equality (NaN
// statistics bounds and workload weights round-trip exactly;
// reflect.DeepEqual calls NaN != NaN).
func recordsBitEqual(a, b Record) bool {
	if math.Float64bits(a.Stats.MinFloat) != math.Float64bits(b.Stats.MinFloat) ||
		math.Float64bits(a.Stats.MaxFloat) != math.Float64bits(b.Stats.MaxFloat) {
		return false
	}
	a.Stats.MinFloat, a.Stats.MaxFloat = 0, 0
	b.Stats.MinFloat, b.Stats.MaxFloat = 0, 0
	if len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	a.Weights, b.Weights = nil, nil
	return reflect.DeepEqual(a, b)
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range testRecords() {
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatalf("%v: %v", r.Type, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", r.Type, got, r)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"unknown type":  {99},
		"truncated":     EncodeRecord(testRecords()[1])[:3],
		"trailing junk": append(EncodeRecord(testRecords()[4]), 0xFF),
	}
	for name, p := range cases {
		if _, err := DecodeRecord(p); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the manifest record decoder.
// The contract mirrors chunk.FuzzDecodeVector: decoding is total (error or
// valid record, never a panic), and any payload that decodes must re-encode
// and decode to the same record — the property manifest replay relies on.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range testRecords() {
		f.Add(EncodeRecord(r))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{4, 1, 't', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeRecord(p)
		if err != nil {
			return
		}
		again, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !recordsBitEqual(again, r) {
			t.Fatalf("decode∘encode not idempotent:\n got %+v\nwant %+v", again, r)
		}
	})
}

// FuzzDecodeSegment starts the record fuzzer from segment records only, so
// its budget goes to the one record whose numbers become a read's offset and
// buffer size: whatever decodes as a RecSegment must keep every group's
// columns, offset and length inside the decode limits.
func FuzzDecodeSegment(f *testing.F) {
	for _, r := range goldenSegmentRecords() {
		f.Add(EncodeRecord(r))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeRecord(p)
		if err != nil || r.Type != RecSegment {
			return
		}
		if len(r.Groups) > maxCols {
			t.Fatalf("%d groups decoded, limit %d", len(r.Groups), maxCols)
		}
		for _, g := range r.Groups {
			if len(g.Cols) > maxCols || g.Off < 0 || g.Off > maxSegmentLen || g.Len < 0 || g.Len > maxSegmentLen {
				t.Fatalf("group %+v decoded outside the limits", g)
			}
		}
	})
}

// FuzzDecodeFrames feeds arbitrary bytes to the frame scanner: it must
// never panic, the valid prefix length must stay in bounds, and re-scanning
// the reported valid prefix must yield the same records without damage.
func FuzzDecodeFrames(f *testing.F) {
	var framed []byte
	for _, r := range testRecords() {
		framed = wire.AppendFrame(framed, EncodeRecord(r))
	}
	f.Add(framed)
	f.Add(framed[:len(framed)-2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, p []byte) {
		recs, valid, torn := decodeFrames(p)
		if valid < 0 || valid > len(p) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(p))
		}
		if !torn && valid != len(p) {
			t.Fatalf("clean scan stopped at %d of %d", valid, len(p))
		}
		again, validAgain, tornAgain := decodeFrames(p[:valid])
		if tornAgain || validAgain != valid || !reflect.DeepEqual(again, recs) {
			t.Fatal("valid prefix does not re-scan cleanly")
		}
	})
}
