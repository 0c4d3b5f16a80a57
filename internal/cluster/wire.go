// Package cluster implements distributed scatter-gather serving: a
// coordinator fans a query out to the scanrawd peers owning shards of a
// table, each peer executes over its assigned chunk range (the worker-side
// /exec endpoint lives in internal/server), and the returned partials fold
// through the ordinary engine merge tree. PR 2 made every operator state
// mergeable with bit-identical-to-serial semantics; this package is the
// network boundary that cashes that property in — the merge tree does not
// care whether partials arrive from goroutines or from sockets.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// Exec stream framing. A worker's /exec response body is a sequence of
// frames, each
//
//	uint32 LE  payload length
//	uint32 LE  CRC32-C of the payload
//	payload
//
// mirroring the store's manifest-record framing: the checksum localizes
// damage, so a torn TCP stream or a proxy truncation invalidates itself
// instead of smuggling a half-written row batch into the merge. Every
// payload starts with a version byte and a message type.

// Message types inside a frame payload.
const (
	// MsgRows carries one chunk's qualifying rows (streamed-LIMIT mode):
	// the coordinator forwards them to the client in global range order.
	MsgRows = 1
	// MsgPartial carries a serialized engine.Partial (aggregate / ORDER BY
	// mode): the whole shard folded into one mergeable state.
	MsgPartial = 2
	// MsgStats carries the shard scan's accounting, folded into the
	// coordinator's per-query stats.
	MsgStats = 3
	// MsgError aborts the stream: the worker failed mid-execution, after
	// the HTTP status was already committed.
	MsgError = 4
	// MsgEnd terminates a successful stream. A stream that ends without it
	// was cut off and must be treated as failed.
	MsgEnd = 5
)

// wireVersion versions the frame payloads.
const wireVersion = 1

const (
	frameHeader     = 8
	maxFramePayload = 1 << 26 // one chunk's rows or one shard's partial
	maxFrameRows    = 1 << 22
	maxFrameCols    = 1 << 14
	maxFrameStrLen  = 1 << 18
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ExecStats is the shard-scan accounting a worker reports at end of
// stream. The field set mirrors the slice of scanraw.RunStats the
// coordinator folds into client-visible stats (cluster sits below scanraw
// in no dependency relationship — the struct is redeclared to keep the
// wire format self-contained).
type ExecStats struct {
	DeliveredCache   int
	DeliveredDB      int
	DeliveredRaw     int
	DeliveredPartial int // partial-width hits
	Skipped          int
	TerminatedEarly  bool
	ChunksSaved      int
	DurationMS       float64
}

// encoder/decoder: varint scalars, length-prefixed strings, first-error
// accumulation — the store's manifest-record idiom.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) uvar(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) ivar(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.uvar(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) boolean(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("cluster: frame truncated")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) uvar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("cluster: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) ivar() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("cluster: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("cluster: frame truncated in float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.uvar()
	if d.err != nil {
		return ""
	}
	if n > maxFrameStrLen {
		d.fail("cluster: string length %d exceeds limit", n)
		return ""
	}
	if d.off+int(n) > len(d.buf) {
		d.fail("cluster: frame truncated in string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) count(limit uint64, what string) int {
	v := d.uvar()
	if d.err != nil {
		return 0
	}
	if v > limit {
		d.fail("cluster: %s %d exceeds limit %d", what, v, limit)
		// Return 0, not the oversized value: callers size allocations by
		// this count, and the count must never outlive the failure.
		return 0
	}
	return int(v)
}

// Value tags, matching the engine's partial codec.
const (
	valInt   = 0
	valFloat = 1
	valStr   = 2
)

func (e *encoder) value(v engine.Value) error {
	switch v.Typ {
	case schema.Int64:
		e.u8(valInt)
		e.ivar(v.Int)
	case schema.Float64:
		e.u8(valFloat)
		e.f64(v.Float)
	case schema.Str:
		e.u8(valStr)
		e.str(v.Str)
	default:
		return fmt.Errorf("cluster: cannot encode value of type %v", v.Typ)
	}
	return nil
}

func (d *decoder) value() engine.Value {
	switch tag := d.u8(); tag {
	case valInt:
		return engine.Value{Typ: schema.Int64, Int: d.ivar()}
	case valFloat:
		return engine.Value{Typ: schema.Float64, Float: d.f64()}
	case valStr:
		return engine.Value{Typ: schema.Str, Str: d.str()}
	default:
		d.fail("cluster: unknown value tag %d", tag)
		return engine.Value{}
	}
}

// Message is one decoded frame of an exec stream. Exactly the fields for
// Type are populated.
type Message struct {
	Type byte

	// MsgRows
	Chunk int // global chunk ID
	Rows  [][]engine.Value

	// MsgPartial: the serialized engine.Partial, decoded one layer up
	// against the coordinator's parsed query.
	Partial []byte

	// MsgStats
	Stats ExecStats

	// MsgError
	Err string
}

// FrameWriter emits framed exec-stream messages. It is not safe for
// concurrent use; the worker's delivery path serializes emission.
type FrameWriter struct {
	w       io.Writer
	scratch []byte
}

// NewFrameWriter wraps w. The caller flushes any buffering w carries.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

func (fw *FrameWriter) writeFrame(payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// Rows emits one chunk's qualifying rows under its global chunk ID.
func (fw *FrameWriter) Rows(globalChunk int, rows [][]engine.Value) error {
	e := &encoder{buf: fw.scratch[:0]}
	e.u8(wireVersion)
	e.u8(MsgRows)
	e.uvar(uint64(globalChunk))
	e.uvar(uint64(len(rows)))
	for _, row := range rows {
		e.uvar(uint64(len(row)))
		for _, v := range row {
			if err := e.value(v); err != nil {
				return err
			}
		}
	}
	fw.scratch = e.buf
	return fw.writeFrame(e.buf)
}

// Partial emits a serialized engine.Partial.
func (fw *FrameWriter) Partial(data []byte) error {
	e := &encoder{buf: fw.scratch[:0]}
	e.u8(wireVersion)
	e.u8(MsgPartial)
	e.buf = append(e.buf, data...)
	fw.scratch = e.buf
	return fw.writeFrame(e.buf)
}

// Stats emits the shard scan's accounting.
func (fw *FrameWriter) Stats(st ExecStats) error {
	e := &encoder{buf: fw.scratch[:0]}
	e.u8(wireVersion)
	e.u8(MsgStats)
	e.uvar(uint64(st.DeliveredCache))
	e.uvar(uint64(st.DeliveredDB))
	e.uvar(uint64(st.DeliveredRaw))
	e.uvar(uint64(st.DeliveredPartial))
	e.uvar(uint64(st.Skipped))
	e.boolean(st.TerminatedEarly)
	e.uvar(uint64(st.ChunksSaved))
	e.f64(st.DurationMS)
	fw.scratch = e.buf
	return fw.writeFrame(e.buf)
}

// Error aborts the stream with an in-band error.
func (fw *FrameWriter) Error(msg string) error {
	e := &encoder{buf: fw.scratch[:0]}
	e.u8(wireVersion)
	e.u8(MsgError)
	e.str(msg)
	fw.scratch = e.buf
	return fw.writeFrame(e.buf)
}

// End terminates a successful stream.
func (fw *FrameWriter) End() error {
	return fw.writeFrame([]byte{wireVersion, MsgEnd})
}

// FrameReader decodes an exec stream message by message.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads one frame. io.EOF before a complete header means the stream
// ended (the caller decides whether MsgEnd was seen); any torn frame,
// checksum mismatch, or malformed payload is an error.
func (fr *FrameReader) Next() (*Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("cluster: torn frame header")
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	want := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("cluster: torn frame payload: %v", err)
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("cluster: frame checksum mismatch")
	}
	return DecodeMessage(payload)
}

// DecodeMessage parses one frame payload. It is total: any byte slice
// yields a message or an error, never a panic, and trailing bytes beyond
// the message are rejected.
func DecodeMessage(payload []byte) (*Message, error) {
	d := &decoder{buf: payload}
	if v := d.u8(); d.err == nil && v != wireVersion {
		return nil, fmt.Errorf("cluster: unsupported frame version %d", v)
	}
	m := &Message{Type: d.u8()}
	switch m.Type {
	case MsgRows:
		m.Chunk = d.count(1<<30, "chunk id")
		nrows := d.count(maxFrameRows, "row count")
		for i := 0; i < nrows && d.err == nil; i++ {
			ncols := d.count(maxFrameCols, "column count")
			if d.err != nil {
				break
			}
			row := make([]engine.Value, ncols)
			for c := 0; c < ncols && d.err == nil; c++ {
				row[c] = d.value()
			}
			m.Rows = append(m.Rows, row)
		}
	case MsgPartial:
		// The partial body is opaque here; engine.DecodePartial validates
		// it against the query one layer up.
		m.Partial = append([]byte(nil), payload[d.off:]...)
		d.off = len(payload)
	case MsgStats:
		m.Stats.DeliveredCache = d.count(1<<30, "delivered cache")
		m.Stats.DeliveredDB = d.count(1<<30, "delivered db")
		m.Stats.DeliveredRaw = d.count(1<<30, "delivered raw")
		m.Stats.DeliveredPartial = d.count(1<<30, "delivered partial")
		m.Stats.Skipped = d.count(1<<30, "skipped")
		m.Stats.TerminatedEarly = d.u8() != 0
		m.Stats.ChunksSaved = d.count(1<<30, "chunks saved")
		m.Stats.DurationMS = d.f64()
	case MsgError:
		m.Err = d.str()
	case MsgEnd:
	default:
		if d.err == nil {
			return nil, fmt.Errorf("cluster: unknown message type %d", m.Type)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after message", len(payload)-d.off)
	}
	return m, nil
}
