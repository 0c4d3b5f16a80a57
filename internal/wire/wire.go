// Package wire owns the byte-level idiom every persisted and networked
// format is built from — varint scalars, little-endian floats,
// length-prefixed strings, the [len u32][crc32c u32][payload] frame — so
// that the manifest journal (store), serialized partials (engine), the
// /exec stream (cluster) and group pages (dbstore) define field layouts
// only, and a bounds-check fix lands once. Stdlib-only leaf package.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// MaxStr bounds a decoded string: a longer length prefix is corruption.
const MaxStr = 1 << 18

// Enc builds a payload by appending to Buf.
type Enc struct{ Buf []byte }

func (e *Enc) U8(v uint8)    { e.Buf = append(e.Buf, v) }
func (e *Enc) Uvar(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Enc) Ivar(v int64)  { e.Buf = binary.AppendVarint(e.Buf, v) }

// UvarLen is the number of bytes Uvar appends for v: an encoder that knows
// its payload's length allocates it once.
func UvarLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *Enc) F64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// Bool encodes one byte, 0 or 1; decoders read it as U8() != 0.
func (e *Enc) Bool(b bool) {
	if b {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str encodes a length-prefixed string; Dec.Str rejects one over MaxStr.
func (e *Enc) Str(s string) {
	e.Uvar(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Bytes encodes a length-prefixed byte string of any length.
func (e *Enc) Bytes(p []byte) {
	e.Uvar(uint64(len(p)))
	e.Buf = append(e.Buf, p...)
}

// Dec parses a payload. It is total — any input yields values or an error,
// never a panic — and sticky: after the first failure every read returns
// the zero value, so a decode function reads straight through, checks once.
type Dec struct {
	buf       []byte
	off       int
	err       error
	pkg, what string
}

// NewDec returns a decoder over buf whose errors read as the owning
// format's: pkg prefixes them ("store"), what names the payload ("record").
func NewDec(buf []byte, pkg, what string) *Dec {
	return &Dec{buf: buf, pkg: pkg, what: what}
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Failf records a failure the caller found (a count that contradicts the
// query, keys out of order); it sticks only if it is the first.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.pkg+": "+format, args...)
	}
}

func (d *Dec) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Failf("%s truncated", d.what)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvar decodes a raw unsigned varint — whatever the bytes say: use Count
// for anything that sizes an allocation or indexes a slice.
func (d *Dec) Uvar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Ivar decodes a raw signed varint.
func (d *Dec) Ivar() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.Failf("%s truncated in float", d.what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Count decodes a non-negative integer bounded by limit (a chunk ID, a row
// count, a list length): the only way to obtain an allocation size from a
// payload. On failure it returns 0, not the oversized value — callers size
// allocations by it, and the count must never outlive the failure.
func (d *Dec) Count(limit uint64, what string) int {
	v := d.Uvar()
	if d.err != nil {
		return 0
	}
	if v > limit {
		d.Failf("%s %d exceeds limit %d", what, v, limit)
		return 0
	}
	return int(v)
}

// Str decodes a length-prefixed string of at most MaxStr bytes.
func (d *Dec) Str() string { return string(d.prefixed(MaxStr, "string")) }

// Bytes decodes a length-prefixed byte string bounded only by what the
// payload holds. The result aliases the payload.
func (d *Dec) Bytes() []byte { return d.prefixed(math.MaxUint64, "byte string") }

func (d *Dec) prefixed(limit uint64, kind string) []byte {
	n := d.Uvar()
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.Failf("%s length %d exceeds limit", kind, n)
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.Failf("%s truncated in %s", d.what, kind)
		return nil
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// Rest consumes every remaining byte (an opaque body validated one layer
// up). The result aliases the payload.
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	p := d.buf[d.off:]
	d.off = len(d.buf)
	return p
}

// Done returns the first failure, or an error if bytes remain: a payload
// holds exactly one value, and trailing bytes are damage, not padding.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Failf("%d trailing bytes after %s", len(d.buf)-d.off, d.what)
	}
	return d.err
}
