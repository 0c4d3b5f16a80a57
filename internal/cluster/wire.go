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
	"fmt"
	"io"

	"scanraw/internal/engine"
	"scanraw/internal/scanraw"
	"scanraw/internal/wire"
)

// Exec stream framing. A worker's /exec response body is a sequence of
// wire frames ([len u32][crc32c u32][payload], the manifest journal's
// framing): the checksum localizes damage, so a torn TCP stream or a proxy
// truncation invalidates itself instead of smuggling a half-written row
// batch into the merge. Every payload starts with a version byte and a
// message type.

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
	maxFramePayload = 1 << 26 // one chunk's rows or one shard's partial
	maxFrameRows    = 1 << 22
	maxFrameCols    = 1 << 14
)

// ExecStats is what a worker reports at end of stream: its shard scan's
// report, the shard query's own share of it, and the scan's wall time.
type ExecStats struct {
	Scan       scanraw.ScanReport
	Member     scanraw.SharedStats
	DurationMS float64
}

// Add folds another shard's stats in; shards run in parallel.
func (s *ExecStats) Add(o ExecStats) {
	s.Scan.Add(o.Scan)
	s.Member.Add(o.Member)
	s.DurationMS = max(s.DurationMS, o.DurationMS)
}

// counts lists the MsgStats payload's counts in wire order for Stats and
// DecodeMessage; TerminatedEarly and DurationMS follow them.
func (s *ExecStats) counts() []*int {
	r, m := &s.Scan, &s.Member
	return []*int{
		&r.DeliveredCache, &r.DeliveredDB, &r.DeliveredRaw, &r.DeliveredPartial,
		&r.SkippedChunks, &r.WrittenDuringRun, &r.ChunksSaved,
		&m.DeliveredChunks, &m.SkippedChunks,
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

// begin starts a frame payload in the reused scratch buffer, leaving room
// for the header so emit sends header and payload in one write.
func (fw *FrameWriter) begin(msgType uint8) *wire.Enc {
	e := &wire.Enc{Buf: append(fw.scratch[:0], make([]byte, wire.FrameHeaderLen)...)}
	e.U8(wireVersion)
	e.U8(msgType)
	return e
}

func (fw *FrameWriter) emit(e *wire.Enc) error {
	fw.scratch = e.Buf
	wire.SealFrame(e.Buf)
	_, err := fw.w.Write(e.Buf)
	return err
}

// Rows emits one chunk's qualifying rows under its global chunk ID.
func (fw *FrameWriter) Rows(globalChunk int, rows [][]engine.Value) error {
	e := fw.begin(MsgRows)
	e.Uvar(uint64(globalChunk))
	e.Uvar(uint64(len(rows)))
	for _, row := range rows {
		e.Uvar(uint64(len(row)))
		for _, v := range row {
			if err := engine.EncodeValue(e, v); err != nil {
				return err
			}
		}
	}
	return fw.emit(e)
}

// Partial emits a serialized engine.Partial.
func (fw *FrameWriter) Partial(data []byte) error {
	e := fw.begin(MsgPartial)
	e.Buf = append(e.Buf, data...)
	return fw.emit(e)
}

// Stats emits the shard scan's accounting.
func (fw *FrameWriter) Stats(st ExecStats) error {
	e := fw.begin(MsgStats)
	for _, n := range st.counts() {
		e.Uvar(uint64(*n))
	}
	e.Bool(st.Scan.TerminatedEarly)
	e.F64(st.DurationMS)
	return fw.emit(e)
}

// Error aborts the stream with an in-band error.
func (fw *FrameWriter) Error(msg string) error {
	e := fw.begin(MsgError)
	e.Str(msg)
	return fw.emit(e)
}

// End terminates a successful stream.
func (fw *FrameWriter) End() error { return fw.emit(fw.begin(MsgEnd)) }

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
	var hdr [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("cluster: torn frame header")
		}
		return nil, err
	}
	n, want := wire.ParseFrameHeader(hdr[:])
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
	if wire.Checksum(payload) != want {
		return nil, fmt.Errorf("cluster: frame checksum mismatch")
	}
	return DecodeMessage(payload)
}

// DecodeMessage parses one frame payload. It is total: any byte slice
// yields a message or an error, never a panic, and trailing bytes beyond
// the message are rejected.
func DecodeMessage(payload []byte) (*Message, error) {
	d := wire.NewDec(payload, "cluster", "frame")
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("cluster: unsupported frame version %d", v)
	}
	m := &Message{Type: d.U8()}
	switch m.Type {
	case MsgRows:
		m.Chunk = d.Count(1<<30, "chunk id")
		nrows := d.Count(maxFrameRows, "row count")
		for i := 0; i < nrows && d.Err() == nil; i++ {
			ncols := d.Count(maxFrameCols, "column count") // 0 once d has failed
			row := make([]engine.Value, ncols)
			for c := 0; c < ncols && d.Err() == nil; c++ {
				row[c] = engine.DecodeValue(d)
			}
			m.Rows = append(m.Rows, row)
		}
	case MsgPartial:
		// The partial body is opaque here; engine.DecodePartial validates
		// it against the query one layer up.
		m.Partial = append([]byte(nil), d.Rest()...)
	case MsgStats:
		for _, n := range m.Stats.counts() {
			*n = d.Count(1<<30, "stats count")
		}
		m.Stats.Scan.TerminatedEarly = d.U8() != 0
		m.Stats.DurationMS = d.F64()
	case MsgError:
		m.Err = d.Str()
	case MsgEnd:
	default:
		d.Failf("unknown message type %d", m.Type)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
