package dbstore

import (
	"fmt"
	"strings"

	"scanraw/internal/chunk"
	"scanraw/internal/wire"
)

// Column-group pages. A page holds the vectors of a *set* of columns of one
// chunk; the catalog learns each page's column membership and its place in a
// segment blob from the journal (segment.go). The store writes one page per
// column. Pages of several adjacent columns, or of a whole chunk, are what
// older builds with a fixed group width wrote; the read side (coverGroups)
// serves any mix of them.

// maxGroupCols bounds a decoded group page's column count and ordinals;
// mirrors the store package's record limits. A page exceeding it is
// corruption, not data.
const maxGroupCols = 1 << 14

// EncodeColGroupKey renders a strictly-increasing list of column ordinals
// as the compact key used in blob names: maximal runs of consecutive
// ordinals render as "lo-hi", singletons as the bare ordinal, joined by
// ".". For example {0,1,2,5} encodes as "0-2.5".
func EncodeColGroupKey(cols []int) string {
	var b strings.Builder
	for i := 0; i < len(cols); {
		j := i
		for j+1 < len(cols) && cols[j+1] == cols[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", cols[i])
		if j > i {
			fmt.Fprintf(&b, "-%d", cols[j])
		}
		i = j + 1
	}
	return b.String()
}

// encodeGroupPage serializes the listed columns of bc as one page payload:
// a column count, then per column its ordinal, encoded-vector length, and
// the chunk package's vector encoding. The payload is sealed with the same
// CRC wrapper as every other page.
func encodeGroupPage(bc *chunk.BinaryChunk, cols []int) ([]byte, error) {
	encs, err := encodeColumns(bc, cols)
	if err != nil {
		return nil, err
	}
	var e wire.Enc
	appendGroupPage(&e, cols, encs)
	return e.Buf, nil
}

// encodeColumns encodes the vectors of the listed columns of bc, in order.
func encodeColumns(bc *chunk.BinaryChunk, cols []int) ([][]byte, error) {
	encs := make([][]byte, len(cols))
	for i, c := range cols {
		v := bc.Column(c)
		if v == nil {
			return nil, fmt.Errorf("dbstore: chunk %d column %d not present in binary chunk", bc.ID, c)
		}
		encs[i] = chunk.EncodeVector(v)
	}
	return encs, nil
}

// appendGroupPage appends encodeGroupPage's payload to e: encs[i] is the
// encoded vector of cols[i].
func appendGroupPage(e *wire.Enc, cols []int, encs [][]byte) {
	e.Uvar(uint64(len(cols)))
	for i, c := range cols {
		e.Uvar(uint64(c))
		e.Bytes(encs[i])
	}
}

// groupPageLen is the number of bytes appendGroupPage appends.
func groupPageLen(cols []int, encs [][]byte) int {
	n := wire.UvarLen(uint64(len(cols)))
	for i, c := range cols {
		n += wire.UvarLen(uint64(c)) + wire.UvarLen(uint64(len(encs[i]))) + len(encs[i])
	}
	return n
}

// groupPageCol is one column slice of a decoded group page: the ordinal and
// its still-encoded vector bytes, so readers decode only the columns they
// need.
type groupPageCol struct {
	col int
	enc []byte
}

// decodeGroupPage splits a group-page payload into per-column encoded
// vectors without decoding them, appending to dst.
func decodeGroupPage(dst []groupPageCol, payload []byte) ([]groupPageCol, error) {
	d := wire.NewDec(payload, "dbstore", "group page")
	n := d.Count(maxGroupCols, "group page column count")
	for i := 0; i < n && d.Err() == nil; i++ {
		dst = append(dst, groupPageCol{col: d.Count(maxGroupCols, "group page ordinal"), enc: d.Bytes()})
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return dst, nil
}

// SetGroupWidth accepts only 1: every page the store writes holds one
// column. Pages of several columns that an older build wrote stay readable
// (coverGroups); nothing writes new ones. Any other width is a programming
// error. The benchmark harness still calls SetGroupWidth(1); ROADMAP item 2a
// deletes this method together with that call.
func (s *Store) SetGroupWidth(w int) {
	if w != 1 {
		panic(fmt.Sprintf("dbstore: group width %d: pages are per column, the only width is 1", w))
	}
}
