package store

import (
	"fmt"
	"math"

	"scanraw/internal/wire"
)

// Manifest records. Every catalog mutation the database performs —
// discovering a chunk's geometry, collecting its statistics, loading its
// columns, finishing a discovery scan — is one record appended to the
// manifest log. Replaying the records in order rebuilds the catalog, and
// because each record is an idempotent upsert, replaying a record whose
// effect is already present (as happens when a crash lands between
// checkpoint compaction steps) is harmless.

// RecType identifies a manifest record's kind.
type RecType uint8

const (
	// RecTableCreate registers a table: name, raw-file blob, schema
	// specification, and the raw file's fingerprint at staging time.
	// Replaying it over an existing table with the same schema and
	// fingerprint is a no-op; a differing fingerprint or schema resets the
	// table (the raw file changed underneath the persisted state).
	RecTableCreate RecType = iota + 1
	// RecChunk records the discovery of one chunk's geometry.
	RecChunk
	// RecStats records conversion-time statistics for one column of one
	// chunk.
	RecStats
	// RecLoaded records that the listed columns of a chunk were stored as
	// page blobs. It is appended only after the pages are durably written,
	// preserving the data-before-metadata ordering recovery relies on.
	RecLoaded
	// RecComplete records that the raw file has been scanned end to end.
	RecComplete
	// RecLoadedGroup records that one column-group page — the listed column
	// ordinals stored together in a single page blob — of a chunk was
	// durably written. Like RecLoaded it is appended only after the page
	// blob is on disk (data before metadata). RecLoaded is kept for
	// replaying pre-colgroup manifests, whose pages are one blob per
	// column.
	RecLoadedGroup
	// RecWorkload upserts a table's decayed per-column access weights — the
	// workload tracker's state, persisted so a restart resumes payoff-ranked
	// speculation instead of falling back to scan order. Idempotent: the
	// latest record for a table wins.
	RecWorkload
	// RecSegment records that one segment blob of a chunk — the sealed pages
	// of one or more column groups, concatenated and written in one WriteBlob
	// — is durable, and where each group's page lies inside it. Like the two
	// loaded records before it, it is appended only after the blob is on disk
	// (data before metadata). A later RecSegment naming the same blob
	// supersedes the earlier one: the blob was replaced whole. RecLoaded and
	// RecLoadedGroup are still replayed — each describes a one-group segment
	// at offset 0 whose blob name follows from its columns — but no longer
	// written.
	RecSegment
)

func (t RecType) String() string {
	switch t {
	case RecTableCreate:
		return "table-create"
	case RecChunk:
		return "chunk"
	case RecStats:
		return "stats"
	case RecLoaded:
		return "loaded"
	case RecComplete:
		return "complete"
	case RecLoadedGroup:
		return "loaded-group"
	case RecWorkload:
		return "workload"
	case RecSegment:
		return "segment"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// ColStatsRec is the serialized form of per-column chunk statistics
// (dbstore.ColStats, which store sits below in the dependency order). Only
// Valid, Type, MinInt, MaxInt and Rows are still written; the float, string
// and distinct fields are retired, written as zeros and kept so that the
// byte format, and journals written before they were retired, stay as
// they are.
type ColStatsRec struct {
	Valid    bool
	Type     uint8
	MinInt   int64
	MaxInt   int64
	MinFloat float64
	MaxFloat float64
	MinStr   string
	MaxStr   string
	Rows     int64
	Distinct int64
}

// SegGroup locates one column group's sealed page inside a segment blob.
type SegGroup struct {
	Cols []int
	Off  int64
	Len  int64
}

// Record is one manifest entry. Only the fields relevant to Type are
// encoded; the rest stay zero.
type Record struct {
	Type  RecType
	Table string

	// RecTableCreate
	RawFile     string
	Schema      string // "name:type,..." specification
	Fingerprint Fingerprint

	// RecChunk / RecStats / RecLoaded / RecLoadedGroup / RecSegment
	Chunk  int
	Rows   int
	RawOff int64
	RawLen int64

	// RecLoaded / RecLoadedGroup
	Cols []int

	// RecStats
	Col   int
	Stats ColStatsRec

	// RecWorkload
	Weights []float64

	// RecSegment: the blob's name inside the chunk's directory, and the
	// groups it holds.
	Seg    string
	Groups []SegGroup
}

// Encoding limits: a decoded field exceeding these is corruption, not data.
const (
	maxRecordLen = 1 << 20
	maxCols      = 1 << 14
	maxChunkID   = 1 << 30
	// maxSegmentLen bounds a group page's offset and length inside a segment:
	// readers size a buffer by them.
	maxSegmentLen = 1 << 31
)

// EncodeRecord serializes a record payload (without framing).
func EncodeRecord(r Record) []byte {
	e := wire.Enc{Buf: make([]byte, 0, 64)}
	e.U8(uint8(r.Type))
	e.Str(r.Table)
	switch r.Type {
	case RecTableCreate:
		e.Str(r.RawFile)
		e.Str(r.Schema)
		e.Ivar(r.Fingerprint.Size)
		e.Uvar(uint64(r.Fingerprint.CRC))
		e.Ivar(r.Fingerprint.ModTimeNs)
	case RecChunk:
		e.Uvar(uint64(r.Chunk))
		e.Uvar(uint64(r.Rows))
		e.Ivar(r.RawOff)
		e.Ivar(r.RawLen)
	case RecStats:
		e.Uvar(uint64(r.Chunk))
		e.Uvar(uint64(r.Col))
		s := r.Stats
		e.Bool(s.Valid)
		e.U8(s.Type)
		e.Ivar(s.MinInt)
		e.Ivar(s.MaxInt)
		e.F64(s.MinFloat)
		e.F64(s.MaxFloat)
		e.Str(s.MinStr)
		e.Str(s.MaxStr)
		e.Ivar(s.Rows)
		e.Ivar(s.Distinct)
	case RecLoaded, RecLoadedGroup:
		e.Uvar(uint64(r.Chunk))
		encodeCols(&e, r.Cols)
	case RecWorkload:
		e.Uvar(uint64(len(r.Weights)))
		for _, w := range r.Weights {
			e.F64(w)
		}
	case RecSegment:
		e.Uvar(uint64(r.Chunk))
		e.Str(r.Seg)
		e.Uvar(uint64(len(r.Groups)))
		for _, g := range r.Groups {
			encodeCols(&e, g.Cols)
			e.Uvar(uint64(g.Off))
			e.Uvar(uint64(g.Len))
		}
	case RecComplete:
	default:
		panic(fmt.Sprintf("store: cannot encode record type %v", r.Type))
	}
	return e.Buf
}

// encodeCols writes a column-ordinal list: its length, then the ordinals.
func encodeCols(e *wire.Enc, cols []int) {
	e.Uvar(uint64(len(cols)))
	for _, c := range cols {
		e.Uvar(uint64(c))
	}
}

// decodeCols reads what encodeCols wrote; an empty list decodes as nil.
func decodeCols(d *wire.Dec) []int {
	n := d.Count(maxCols, "column count")
	if d.Err() != nil || n == 0 {
		return nil
	}
	cols := make([]int, 0, min(n, 64))
	for i := 0; i < n && d.Err() == nil; i++ {
		cols = append(cols, d.Count(maxCols, "column"))
	}
	return cols
}

// DecodeRecord parses a record payload. It is total: any input either
// yields a valid record or an error, never a panic, and trailing bytes
// beyond the record are rejected (a frame holds exactly one record).
func DecodeRecord(p []byte) (Record, error) {
	d := wire.NewDec(p, "store", "record")
	r := Record{Type: RecType(d.U8())}
	r.Table = d.Str()
	switch r.Type {
	case RecTableCreate:
		r.RawFile = d.Str()
		r.Schema = d.Str()
		r.Fingerprint.Size = d.Ivar()
		r.Fingerprint.CRC = uint32(d.Count(math.MaxUint32, "fingerprint crc"))
		r.Fingerprint.ModTimeNs = d.Ivar()
	case RecChunk:
		r.Chunk = d.Count(maxChunkID, "chunk id")
		r.Rows = d.Count(maxChunkID, "row count")
		r.RawOff = d.Ivar()
		r.RawLen = d.Ivar()
	case RecStats:
		r.Chunk = d.Count(maxChunkID, "chunk id")
		r.Col = d.Count(maxCols, "column")
		r.Stats.Valid = d.U8() != 0
		r.Stats.Type = d.U8()
		r.Stats.MinInt = d.Ivar()
		r.Stats.MaxInt = d.Ivar()
		r.Stats.MinFloat = d.F64()
		r.Stats.MaxFloat = d.F64()
		r.Stats.MinStr = d.Str()
		r.Stats.MaxStr = d.Str()
		r.Stats.Rows = d.Ivar()
		r.Stats.Distinct = d.Ivar()
	case RecLoaded, RecLoadedGroup:
		r.Chunk = d.Count(maxChunkID, "chunk id")
		r.Cols = decodeCols(d)
	case RecWorkload:
		n := d.Count(maxCols, "weight count")
		if d.Err() == nil && n > 0 {
			r.Weights = make([]float64, 0, min(n, 64))
			for i := 0; i < n && d.Err() == nil; i++ {
				r.Weights = append(r.Weights, d.F64())
			}
		}
	case RecSegment:
		r.Chunk = d.Count(maxChunkID, "chunk id")
		r.Seg = d.Str()
		n := d.Count(maxCols, "group count")
		if d.Err() == nil && n > 0 {
			r.Groups = make([]SegGroup, 0, min(n, 64))
			for i := 0; i < n && d.Err() == nil; i++ {
				r.Groups = append(r.Groups, SegGroup{
					Cols: decodeCols(d),
					Off:  int64(d.Count(maxSegmentLen, "group offset")),
					Len:  int64(d.Count(maxSegmentLen, "group length")),
				})
			}
		}
	case RecComplete:
	default:
		return Record{}, fmt.Errorf("store: unknown record type %d", uint8(r.Type))
	}
	if err := d.Done(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// decodeFrames parses a sequence of framed records (wire.AppendFrame),
// stopping at the first damaged frame. It returns the decoded records, the
// byte length of the valid prefix, and whether a damaged suffix was found.
func decodeFrames(p []byte) (recs []Record, validLen int, torn bool) {
	off := 0
	for {
		if off == len(p) {
			return recs, off, false
		}
		if len(p)-off < wire.FrameHeaderLen {
			return recs, off, true
		}
		n, want := wire.ParseFrameHeader(p[off:])
		if n > maxRecordLen || len(p)-off-wire.FrameHeaderLen < n {
			return recs, off, true
		}
		payload := p[off+wire.FrameHeaderLen : off+wire.FrameHeaderLen+n]
		if wire.Checksum(payload) != want {
			return recs, off, true
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			return recs, off, true
		}
		recs = append(recs, r)
		off += wire.FrameHeaderLen + n
	}
}
