package queryapi

import (
	"math"
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
// over: sel nil selects rows 0..n-1, otherwise its n ordinals.
func AppendChunk(dst []byte, cols []*chunk.Vector, sel []int, n int) []byte {
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
			switch v.Type {
			case schema.Int64:
				dst = strconv.AppendInt(dst, v.Ints[r], 10)
			case schema.Float64:
				dst = appendFloat(dst, v.Floats[r])
			default:
				dst = appendString(dst, v.Strs[r])
			}
		}
		dst = append(dst, ']', '\n')
	}
	return dst
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
			dst = strconv.AppendInt(dst, v.Int, 10)
		case schema.Float64:
			dst = appendFloat(dst, v.Float)
		default:
			dst = appendString(dst, v.Str)
		}
	}
	return append(dst, ']')
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
