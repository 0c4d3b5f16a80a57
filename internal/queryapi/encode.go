package queryapi

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"scanraw/internal/chunk"
	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// The row encoder: every result row on a /query reply — JSON, NDJSON, a
// coordinator's relay, an estimate line — is appended to a byte slice by
// the cell appenders below. For a finite value the bytes are exactly what
// encoding/json writes for the same int64, float64 or string (the
// differential test and FuzzEncodeRow hold it to the installed toolchain);
// a NaN or ±Inf float, which JSON cannot carry and encoding/json refuses,
// is null. Rows come in from engine values or straight from a chunk's
// evaluated column vectors; both reach the same appenders.

// AppendRows appends rows as one JSON array of row arrays, "[]" when empty.
func AppendRows(dst []byte, rows [][]engine.Value) []byte {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, row)
	}
	return append(dst, ']')
}

// AppendChunk appends one NDJSON line per qualifying row of a chunk's
// projected columns, in the shape engine.Partial.ChunkVectors hands them
// over: sel nil selects rows 0..n-1, otherwise its n ordinals. How a
// column's cells are read — an Int64 column narrow or wide — is chosen once
// per column, not once per cell.
func AppendChunk(dst []byte, cols []*chunk.Vector, sel []int, n int) []byte {
	var buf [16]cellKind
	kinds := buf[:0]
	if len(cols) > len(buf) {
		kinds = make([]cellKind, 0, len(cols))
	}
	for _, v := range cols {
		kinds = append(kinds, kindOf(v))
	}
	for ri := 0; ri < n; ri++ {
		r := ri
		if sel != nil {
			r = sel[ri]
		}
		dst = append(dst, '[')
		for i, v := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			switch kinds[i] {
			case cellInt:
				dst = appendInt(dst, v.Ints[r])
			case cellInt32:
				dst = appendInt(dst, int64(v.Int32[r]))
			case cellFloat:
				dst = appendFloat(dst, v.Floats[r])
			default:
				dst = appendString(dst, v.Strs[r])
			}
		}
		dst = append(dst, ']', '\n')
	}
	return dst
}

// cellKind is how AppendChunk reads one column's cells.
type cellKind uint8

const (
	cellInt   cellKind = iota // Int64, wide
	cellInt32                 // Int64, narrow
	cellFloat
	cellStr
)

func kindOf(v *chunk.Vector) cellKind {
	switch {
	case v.Type == schema.Int64 && v.Int32 != nil:
		return cellInt32
	case v.Type == schema.Int64:
		return cellInt
	case v.Type == schema.Float64:
		return cellFloat
	}
	return cellStr
}

// appendRow appends one row of values as a JSON array.
func appendRow(dst []byte, row []engine.Value) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Typ {
		case schema.Int64:
			dst = appendInt(dst, v.Int)
		case schema.Float64:
			dst = appendFloat(dst, v.Float)
		default:
			dst = appendString(dst, v.Str)
		}
	}
	return append(dst, ']')
}

// digitPairs is "00" "01" … "99": the two digits of n at [2n, 2n+2).
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInt appends x in decimal: exactly the bytes of
// strconv.AppendInt(dst, x, 10), written only into dst[len(dst):] of the
// result (spare capacity is never scratch space).
func appendInt(dst []byte, x int64) []byte {
	u := uint64(x)
	if x < 0 {
		dst = append(dst, '-')
		u = -u // MinInt64 too: its magnitude is 1<<63 as a uint64
	}
	return appendUint(dst, u)
}

// appendUint is appendInt's magnitude. Below 100 it is a digit or a digit
// pair; below 1e8 one eightDigits word cut to its significant bytes. From
// 1e8 the low eight digits are one eightDigits word stored whole after the
// head: below 1e10 — most of a 31-bit column — a head of one or two digits,
// above it the head formatted the same way.
func appendUint(dst []byte, u uint64) []byte {
	switch {
	case u < 10:
		return append(dst, byte('0'+u))
	case u < 100:
		return append(dst, digitPairs[2*u], digitPairs[2*u+1])
	case u < 1e8:
		w := eightDigits(u)
		lead := bits.TrailingZeros64(w-0x3030303030303030) >> 3 // u ≥ 10: some lane is nonzero
		var a [8]byte
		binary.LittleEndian.PutUint64(a[:], w)
		return append(dst, a[lead:]...)
	case u < 1e10:
		h := u / 1e8
		if h < 10 {
			dst = append(dst, byte('0'+h))
		} else {
			dst = append(dst, digitPairs[2*h], digitPairs[2*h+1])
		}
		return binary.LittleEndian.AppendUint64(dst, eightDigits(u-h*1e8))
	default:
		h := u / 1e8
		return binary.LittleEndian.AppendUint64(appendUint(dst, h), eightDigits(u-h*1e8))
	}
}

// eightDigits turns u < 1e8 into its eight ASCII digits, zero-padded, most
// significant in the low byte. Each step halves the lane width: 4+4 digits
// in two 32-bit lanes, 2-digit values in 16-bit lanes by a multiply-shift
// /100, digits in bytes by a multiply-shift /10. Each product fits its
// lane, and the mask drops what the shift brings down from the lane above.
func eightDigits(u uint64) uint64 {
	v := u/1e4 | (u%1e4)<<32
	hi := (v * 5243 >> 19) & 0x0000007f0000007f // x/100 for x < 1e4 (5243/2^19)
	v = hi | (v-hi*100)<<16
	hi = (v * 103 >> 10) & 0x000f000f000f000f // x/10 for x < 100 (103/2^10)
	v = hi | (v-hi*10)<<8
	return v + 0x3030303030303030
}

// Float is a float64 that marshals by the row encoder's rule, for the
// scalars (an estimate's error bounds) that ride beside rows on a line
// encoding/json writes.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) { return appendFloat(nil, float64(f)), nil }

// appendFloat is encoding/json's float64 encoder: ES6 number-to-string —
// plain decimals inside [1e-6, 1e21), exponent form outside, a negative
// exponent without its leading zero — with null where that one errors.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// escaped marks the ASCII bytes a JSON string cannot hold raw under
// encoding/json's defaults: controls, the quote, the backslash and the
// HTML-sensitive <, > and &.
var escaped = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = b < 0x20 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&'
	}
	return t
}()

// appendString is encoding/json's string encoder with HTML escaping on (the
// json.Encoder default): short escapes for the quote, the backslash and
// \b \f \n \r \t; \u00XX for the other controls and <, > and &; \u2028 and
// \u2029 for the two separators JavaScript cannot hold; \ufffd for each byte
// of invalid UTF-8. A raw newline therefore never appears inside a cell: on
// an NDJSON stream it is always a row boundary.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if !escaped[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
