package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"scanraw/internal/chunk"
	"scanraw/internal/parse"
	"scanraw/internal/schema"
)

// Framing helpers shared by every kernel. They mirror tok.Tokenize exactly:
// a line ends at the next '\n' (or end of data), one trailing '\r' is not
// part of the last field (CRLF tolerance), end of line terminates the
// current field, and a line with fewer than upTo fields is an error.

// lineBounds locates the line starting at pos: rawEnd is the index of its
// terminating '\n' (or len(data)), lineEnd the end of its content with one
// trailing '\r' stripped.
func lineBounds(data []byte, pos int) (rawEnd, lineEnd int) {
	rawEnd = len(data)
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		rawEnd = pos + i
	}
	lineEnd = rawEnd
	if lineEnd > pos && data[lineEnd-1] == '\r' {
		lineEnd--
	}
	return rawEnd, lineEnd
}

// nextLine returns the start of the line following the one ending at
// rawEnd. Combined with lineBounds' CR strip this advances exactly like
// tok.Tokenize's scan position.
func nextLine(data []byte, rawEnd int) int {
	if rawEnd < len(data) { // data[rawEnd] == '\n'
		return rawEnd + 1
	}
	return rawEnd
}

// fieldEnd returns the end of the field starting at fs: the index of the
// next delimiter, or lineEnd when the line's last field runs to its end.
func fieldEnd(data []byte, fs, lineEnd int, delim byte) int {
	if i := bytes.IndexByte(data[fs:lineEnd], delim); i >= 0 {
		return fs + i
	}
	return lineEnd
}

func errShort(tc *chunk.TextChunk, r int) error {
	return fmt.Errorf("kernel: chunk %d claims %d lines but data ends at line %d", tc.ID, tc.Lines, r)
}

func errFields(tc *chunk.TextChunk, r, have, need int) error {
	return fmt.Errorf("kernel: chunk %d row %d has %d fields, need %d", tc.ID, r, have, need)
}

// parseIntField parses the decimal int64 field beginning at fs, ending at
// the first delimiter or at lineEnd — the delimiter scan IS the parse, so
// requested integer columns never pay a separate boundary search. It
// accepts exactly what parse.ParseInt accepts (optional sign, decimal
// digits, MinInt64 as a special case) and returns the value plus the index
// just past the field's last byte. The delimiter is checked before the
// sign so exotic delimiters ('-', '+') still split fields first, matching
// the tokenizer.
//
// The common field takes the word path: an optional '-' and 1–16 digits
// read as two little-endian words (leadingDigits), accepted only when the
// byte after the digits is the delimiter or lineEnd. Sixteen digits stay
// below 2^63, so the word path cannot overflow. Everything else — a '+',
// a lone sign, 17+ digits, a bad byte, a digit or '-' delimiter, fewer
// than 17 bytes left in the chunk to load — falls through to the byte loop,
// which alone produces every error, so error values and messages are those
// of the byte loop whichever path a field starts on. (A sign and 16 digits
// need 17 bytes; the byte after them is read only when it is not lineEnd,
// and digits never run past lineEnd, so it lies inside the data.)
func parseIntField(data []byte, fs, lineEnd int, delim byte) (int64, int, error) {
	if fs+17 <= len(data) && delim-'0' > 9 && delim != '-' {
		i := fs
		if data[i] == '-' {
			i++
		}
		v, n := leadingDigits(binary.LittleEndian.Uint64(data[i:]))
		if n == 8 {
			v2, n2 := leadingDigits(binary.LittleEndian.Uint64(data[i+8:]))
			v, n = v*pow10[n2]+v2, 8+n2
		}
		if j := i + n; n > 0 && (j == lineEnd || data[j] == delim) {
			if i > fs {
				return -int64(v), j, nil
			}
			return int64(v), j, nil
		}
	}
	i := fs
	neg := false
	if i < lineEnd && data[i] != delim {
		switch data[i] {
		case '-':
			neg = true
			i++
		case '+':
			i++
		}
	}
	digStart := i
	const cutoff = (1<<63 - 1) / 10
	var x int64
	for ; i < lineEnd; i++ {
		c := data[i]
		if c == delim {
			break
		}
		d := c - '0'
		if d > 9 {
			return 0, 0, fmt.Errorf("invalid integer %q", data[fs:fieldEnd(data, fs, lineEnd, delim)])
		}
		if x > cutoff {
			return 0, 0, fmt.Errorf("integer overflow in %q", data[fs:fieldEnd(data, fs, lineEnd, delim)])
		}
		x = x*10 + int64(d)
		if x < 0 {
			// Overflowed past MaxInt64; MinInt64 is representable only when
			// negative, exactly -2^63, and the field's final digit.
			if neg && x == -1<<63 {
				if j := i + 1; j >= lineEnd || data[j] == delim {
					return x, j, nil // already negative
				}
			}
			return 0, 0, fmt.Errorf("integer overflow in %q", data[fs:fieldEnd(data, fs, lineEnd, delim)])
		}
	}
	if i == digStart {
		return 0, 0, fmt.Errorf("invalid integer %q", data[fs:i])
	}
	if neg {
		x = -x
	}
	return x, i, nil
}

var pow10 = [9]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// leadingDigits returns the value and length of the run of ASCII digits at
// the start of w, a little-endian load of eight bytes. A byte b is a digit
// iff x = b^'0' is below 10, i.e. neither x nor x+0x76 has its high bit
// set; an addition's carry can only raise a flag above the first non-digit,
// so the lowest flag is exact. The digits are shifted to the top of the word
// (zeros below read as leading zeros) and folded pairwise by three
// multiplies: digits to 2-digit lanes, to 4-digit lanes, to the value.
func leadingDigits(w uint64) (uint64, int) {
	x := w ^ 0x3030303030303030
	n := bits.TrailingZeros64(((x+0x7676767676767676)|x)&0x8080808080808080) >> 3
	x <<= 64 - 8*uint(n) // n = 0 shifts everything out
	x = (x * (10<<8 + 1)) >> 8 & 0x00FF00FF00FF00FF
	x = (x * (100<<16 + 1)) >> 16 & 0x0000FFFF0000FFFF
	return (x * (10000<<32 + 1)) >> 32, n
}

// runInt64Subset converts an all-int64 column set with no per-field type
// dispatch, memchr-skipping the unrequested columns between consecutive
// requested ones. A dense prefix is the subset whose gaps are all zero.
func runInt64Subset(k *Kernel, tc *chunk.TextChunk, out []*chunk.Vector) error {
	data := tc.Data
	delim := k.delim
	ncols := len(k.cols)
	pos := 0
	for r := 0; r < tc.Lines; r++ {
		if pos >= len(data) {
			return errShort(tc, r)
		}
		rawEnd, lineEnd := lineBounds(data, pos)
		fs := pos
		for j := 0; j < ncols; j++ {
			col := k.cols[j]
			for g := k.gaps[j]; g > 0; g-- {
				i := bytes.IndexByte(data[fs:lineEnd], delim)
				if i < 0 {
					return errFields(tc, r, col-g+1, k.upTo)
				}
				fs += i + 1
			}
			x, fe, err := parseIntField(data, fs, lineEnd, delim)
			if err != nil {
				return fmt.Errorf("kernel: chunk %d row %d col %d: %w", tc.ID, r, col, err)
			}
			if fe == lineEnd && col < k.upTo-1 {
				return errFields(tc, r, col+1, k.upTo)
			}
			out[j].Ints[r] = x
			fs = fe + 1
		}
		pos = nextLine(data, rawEnd)
	}
	return nil
}

// runGeneric is the fused kernel for any type shape — floats and strings
// included. Still one pass per line — it merely pays a per-field type
// dispatch the int64 kernel compiles away.
func runGeneric(k *Kernel, tc *chunk.TextChunk, out []*chunk.Vector) error {
	data := tc.Data
	delim := k.delim
	ncols := len(k.cols)
	pos := 0
	for r := 0; r < tc.Lines; r++ {
		if pos >= len(data) {
			return errShort(tc, r)
		}
		rawEnd, lineEnd := lineBounds(data, pos)
		fs := pos
		for j := 0; j < ncols; j++ {
			col := k.cols[j]
			for g := k.gaps[j]; g > 0; g-- {
				i := bytes.IndexByte(data[fs:lineEnd], delim)
				if i < 0 {
					return errFields(tc, r, col-g+1, k.upTo)
				}
				fs += i + 1
			}
			var fe int
			switch k.types[j] {
			case schema.Int64:
				x, end, err := parseIntField(data, fs, lineEnd, delim)
				if err != nil {
					return fmt.Errorf("kernel: chunk %d row %d col %d: %w", tc.ID, r, col, err)
				}
				out[j].Ints[r] = x
				fe = end
			case schema.Float64:
				fe = fieldEnd(data, fs, lineEnd, delim)
				x, err := parse.ParseFloat(data[fs:fe])
				if err != nil {
					return fmt.Errorf("kernel: chunk %d row %d col %d: %w", tc.ID, r, col, err)
				}
				out[j].Floats[r] = x
			default:
				fe = fieldEnd(data, fs, lineEnd, delim)
				out[j].Strs[r] = string(data[fs:fe])
			}
			if fe == lineEnd && col < k.upTo-1 {
				return errFields(tc, r, col+1, k.upTo)
			}
			fs = fe + 1
		}
		pos = nextLine(data, rawEnd)
	}
	return nil
}
