// Package tok implements the TOKENIZE stage of raw-file query processing
// (paper §2): given a text chunk whose lines are delimiter-separated tuples,
// it identifies the starting (and ending) position of every attribute and
// records them in a positional map.
//
// The paper's selective tokenizing is implemented: the linear scan over a
// line stops as soon as the last attribute required by the query has been
// delimited, so queries touching a column prefix never pay for the full
// line.
//
// The operator converts with the fused kernels of internal/kernel; this
// package and internal/parse are the two-stage reference those kernels are
// differentially tested and benchmarked against.
package tok

import (
	"bytes"
	"fmt"

	"scanraw/internal/chunk"
)

// Tokenizer tokenizes text chunks with a fixed field delimiter.
type Tokenizer struct {
	// Delim separates attributes within a line (',' for CSV, '\t' for
	// tab-delimited files such as SAM).
	Delim byte
	// MinFields is the number of attributes every tuple must contain.
	// Lines may carry more (e.g. SAM optional fields); they may not carry
	// fewer. Tokenize requests beyond MinFields are rejected.
	MinFields int
}

// Tokenize scans chunk c and produces a positional map covering the first
// upTo attributes of every line. upTo must be in [1, MinFields]. The scan
// over each line stops as soon as attribute upTo-1 is delimited (selective
// tokenizing); LineEnd still records the true end of each line.
func (t *Tokenizer) Tokenize(c *chunk.TextChunk, upTo int) (*chunk.PositionalMap, error) {
	if upTo < 1 || upTo > t.MinFields {
		return nil, fmt.Errorf("tok: upTo %d outside [1,%d]", upTo, t.MinFields)
	}
	rows := c.Lines
	m := chunk.GetPositionalMap(rows, upTo)
	m.NumRows = rows
	m.NumCols = upTo
	data := c.Data
	pos := 0
	for r := 0; r < rows; r++ {
		if pos >= len(data) {
			chunk.PutPositionalMap(m)
			return nil, fmt.Errorf("tok: chunk %d claims %d lines but data ends at line %d", c.ID, rows, r)
		}
		lineEnd := pos + lineLength(data[pos:])
		// Tolerate CRLF line endings: the carriage return is not part of
		// the last field.
		if lineEnd > pos && data[lineEnd-1] == '\r' {
			lineEnd--
		}
		fieldStart := pos
		found := 0
		for i := pos; found < upTo; i++ {
			if i >= lineEnd {
				// End of line terminates the current field.
				m.Starts = append(m.Starts, int32(fieldStart))
				m.Ends = append(m.Ends, int32(lineEnd))
				found++
				if found < upTo {
					chunk.PutPositionalMap(m)
					return nil, fmt.Errorf("tok: chunk %d row %d has %d fields, need %d", c.ID, r, found, upTo)
				}
				break
			}
			if data[i] == t.Delim {
				m.Starts = append(m.Starts, int32(fieldStart))
				m.Ends = append(m.Ends, int32(i))
				found++
				fieldStart = i + 1
			}
		}
		m.LineEnd = append(m.LineEnd, int32(lineEnd))
		pos = lineEnd
		if pos < len(data) && data[pos] == '\r' {
			pos++
		}
		if pos < len(data) && data[pos] == '\n' {
			pos++
		}
	}
	return m, nil
}

// lineLength returns the number of bytes before the next '\n' (or to the
// end of data when no newline remains).
func lineLength(data []byte) int {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i
	}
	return len(data)
}

// SplitChunks partitions raw file bytes into text chunks of at most
// linesPerChunk lines each, assigning consecutive IDs starting at 0. The
// returned chunks alias data (no copying). It is the reference splitter
// used by generators and tests; the pipeline reader performs the same split
// incrementally.
func SplitChunks(data []byte, linesPerChunk int) ([]*chunk.TextChunk, error) {
	if linesPerChunk <= 0 {
		return nil, fmt.Errorf("tok: linesPerChunk must be positive, got %d", linesPerChunk)
	}
	var out []*chunk.TextChunk
	id := 0
	for len(data) > 0 {
		lines := 0
		pos := 0
		for lines < linesPerChunk && pos < len(data) {
			n := lineLength(data[pos:])
			pos += n
			if pos < len(data) && data[pos] == '\n' {
				pos++
			}
			lines++
		}
		out = append(out, &chunk.TextChunk{ID: id, Data: data[:pos], Lines: lines})
		data = data[pos:]
		id++
	}
	return out, nil
}
