package dbstore

import (
	"reflect"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/wire"
)

// TestEncodeColGroupKey: runs of consecutive ordinals collapse to "lo-hi", so
// one column set has one blob name.
func TestEncodeColGroupKey(t *testing.T) {
	cases := []struct {
		cols []int
		key  string
	}{
		{[]int{0}, "0"},
		{[]int{3}, "3"},
		{[]int{0, 1}, "0-1"},
		{[]int{0, 1, 2}, "0-2"},
		{[]int{0, 1, 2, 5}, "0-2.5"},
		{[]int{1, 3, 5}, "1.3.5"},
		{[]int{0, 2, 3, 4, 9, 10}, "0.2-4.9-10"},
	}
	for _, c := range cases {
		if got := EncodeColGroupKey(c.cols); got != c.key {
			t.Errorf("Encode(%v) = %q, want %q", c.cols, got, c.key)
		}
	}
}

// widthGroups splits cols into the pages a store with a fixed group width
// wrote before pages became per column: the listed columns of each run of
// width consecutive ordinals share a page, in the order their runs first
// appear; width 0 puts every listed column of an ncols-wide table in one.
func widthGroups(cols []int, ncols, width int) [][]int {
	if width <= 0 || width > ncols {
		width = ncols
	}
	at := make(map[int]int) // run -> index in out
	var out [][]int
	for _, c := range cols {
		i, ok := at[c/width]
		if !ok {
			i = len(out)
			at[c/width] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], c)
	}
	return out
}

// encodeAtWidth is EncodeSegment as a store of the given group width ran it.
func encodeAtWidth(t *Table, bc *chunk.BinaryChunk, cols []int, width int) (*Segment, error) {
	return encodeSegment(t, bc, widthGroups(cols, t.Schema().NumColumns(), width))
}

// writeAtWidth is WriteChunkColumns as a store of the given group width ran
// it: same pages, same bytes.
func writeAtWidth(s *Store, t *Table, bc *chunk.BinaryChunk, cols []int, width int) error {
	return s.WriteLegacyGroups(t, bc, widthGroups(cols, t.Schema().NumColumns(), width))
}

// TestEncodeSegmentPerColumn: a write is one page per listed column not
// loaded yet, in the order given — what a width-1 store wrote — and the
// store refuses any other group width.
func TestEncodeSegmentPerColumn(t *testing.T) {
	s, tb := newTestStore(t)
	bc := fullChunk(t, 0, 8)
	if err := tb.EnsureChunk(0, 8, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunkColumns(tb, bc, []int{1}); err != nil {
		t.Fatal(err)
	}
	seg, err := s.EncodeSegment(tb, bc, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]int
	for _, g := range seg.groups {
		pages = append(pages, g.Cols)
	}
	if !reflect.DeepEqual(pages, [][]int{{2}, {0}}) {
		t.Errorf("segment pages %v, want [[2] [0]]", pages)
	}
	s.SetGroupWidth(1)
	defer func() {
		if recover() == nil {
			t.Error("SetGroupWidth(2) did not panic")
		}
	}()
	s.SetGroupWidth(2)
}

// TestGroupPageDecodeTotal: a group page cut at any offset, carrying a
// trailing byte, or claiming more columns than the limit is an error, never
// a panic or a short result.
func TestGroupPageDecodeTotal(t *testing.T) {
	bc := fullChunk(t, 0, 8)
	page, err := encodeGroupPage(bc, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := decodeGroupPage(nil, page)
	if err != nil || len(cols) != 2 || cols[0].col != 0 || cols[1].col != 2 {
		t.Fatalf("decode = %+v, %v", cols, err)
	}
	for cut := 0; cut < len(page); cut++ {
		if _, err := decodeGroupPage(nil, page[:cut]); err == nil {
			t.Errorf("page cut at %d of %d decoded", cut, len(page))
		}
	}
	if _, err := decodeGroupPage(nil, append(append([]byte(nil), page...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	var e wire.Enc
	e.Uvar(maxGroupCols + 1)
	if _, err := decodeGroupPage(nil, e.Buf); err == nil {
		t.Error("over-limit column count accepted")
	}
}
