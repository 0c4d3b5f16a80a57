package kernel

import (
	"bytes"
	"fmt"

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
func parseIntField(data []byte, fs, lineEnd int, delim byte) (int64, int, error) {
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
