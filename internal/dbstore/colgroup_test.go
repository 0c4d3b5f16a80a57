package dbstore

import (
	"reflect"
	"testing"

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

func TestGroupPartition(t *testing.T) {
	cases := []struct {
		ncols, width int
		want         [][]int
	}{
		{0, 2, nil},
		{3, 1, [][]int{{0}, {1}, {2}}},
		{5, 2, [][]int{{0, 1}, {2, 3}, {4}}},
		{4, 0, [][]int{{0, 1, 2, 3}}},
		{2, 8, [][]int{{0, 1}}},
	}
	for _, c := range cases {
		got := GroupPartition(c.ncols, c.width)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("GroupPartition(%d, %d) = %v, want %v", c.ncols, c.width, got, c.want)
		}
	}
}

func TestGroupClosure(t *testing.T) {
	s, tb := newTestStore(t)
	// Width 1: the closure is the request itself.
	if got := s.GroupClosure(tb, []int{1}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("width-1 closure = %v", got)
	}
	// Width 2 over 3 columns: groups {0,1} and {2}; asking for column 1
	// pulls in its whole group.
	s.SetGroupWidth(2)
	if got := s.GroupClosure(tb, []int{1}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("width-2 closure of {1} = %v, want [0 1]", got)
	}
	if got := s.GroupClosure(tb, []int{2}); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("width-2 closure of {2} = %v, want [2]", got)
	}
	// Full width: everything.
	s.SetGroupWidth(0)
	if got := s.GroupClosure(tb, []int{1}); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("full-width closure = %v", got)
	}
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
