package dbstore

import (
	"reflect"
	"sort"
	"testing"

	"scanraw/internal/wire"
)

func TestColGroupKeyRoundTrip(t *testing.T) {
	cases := []struct {
		cols []int
		key  string
	}{
		{[]int{0}, "0"},
		{[]int{3}, "3"},
		{[]int{0, 1, 2}, "0-2"},
		{[]int{0, 1, 2, 5}, "0-2.5"},
		{[]int{1, 3, 5}, "1.3.5"},
		{[]int{0, 2, 3, 4, 9, 10}, "0.2-4.9-10"},
	}
	for _, c := range cases {
		got := EncodeColGroupKey(c.cols)
		if got != c.key {
			t.Errorf("Encode(%v) = %q, want %q", c.cols, got, c.key)
		}
		back, err := DecodeColGroupKey(c.key)
		if err != nil {
			t.Errorf("Decode(%q): %v", c.key, err)
			continue
		}
		if !reflect.DeepEqual(back, c.cols) {
			t.Errorf("Decode(%q) = %v, want %v", c.key, back, c.cols)
		}
	}
}

func TestColGroupKeyRejectsNonCanonical(t *testing.T) {
	bad := []string{
		"", ".", "0.", ".0", "0..2", "1.0", "2.2", "0.1", // "0.1" must be "0-1"
		"0-0", "3-1", "-1", "1-", "00", "01", "0x1", " 1", "1 ", "999999999999",
	}
	for _, key := range bad {
		if cols, err := DecodeColGroupKey(key); err == nil {
			t.Errorf("Decode(%q) = %v, want error", key, cols)
		}
	}
}

// FuzzDecodeColGroupKey drives the strict decoder with arbitrary strings:
// it must never panic, and any key it accepts must be canonical — the
// decoded ordinal list is strictly increasing and re-encodes to the exact
// input, so one column set maps to one page name. The reverse property is
// exercised too: a column set derived from the input bytes must survive an
// encode/decode round trip.
func FuzzDecodeColGroupKey(f *testing.F) {
	f.Add("0")
	f.Add("0-2.5")
	f.Add("1.3.5")
	f.Add("0.1")
	f.Add("10-12")
	f.Add("\x00g..--")
	f.Fuzz(func(t *testing.T, key string) {
		if cols, err := DecodeColGroupKey(key); err == nil {
			if len(cols) == 0 {
				t.Fatalf("Decode(%q) accepted an empty group", key)
			}
			for i, c := range cols {
				if c < 0 || c >= maxGroupCols {
					t.Fatalf("Decode(%q) ordinal %d out of range", key, c)
				}
				if i > 0 && c <= cols[i-1] {
					t.Fatalf("Decode(%q) = %v not strictly increasing", key, cols)
				}
			}
			if re := EncodeColGroupKey(cols); re != key {
				t.Fatalf("Decode(%q) = %v re-encodes to %q: key not canonical", key, cols, re)
			}
		}
		// Reverse direction: build a set from the input bytes and round-trip.
		set := map[int]bool{}
		for i := 0; i < len(key) && i < 32; i++ {
			set[int(key[i])%64] = true
		}
		if len(set) == 0 {
			return
		}
		cols := make([]int, 0, len(set))
		for c := range set {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		back, err := DecodeColGroupKey(EncodeColGroupKey(cols))
		if err != nil {
			t.Fatalf("round trip of %v failed: %v", cols, err)
		}
		if !reflect.DeepEqual(back, cols) {
			t.Fatalf("round trip of %v = %v", cols, back)
		}
	})
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
	cols, err := decodeGroupPage(page)
	if err != nil || len(cols) != 2 || cols[0].col != 0 || cols[1].col != 2 {
		t.Fatalf("decode = %+v, %v", cols, err)
	}
	for cut := 0; cut < len(page); cut++ {
		if _, err := decodeGroupPage(page[:cut]); err == nil {
			t.Errorf("page cut at %d of %d decoded", cut, len(page))
		}
	}
	if _, err := decodeGroupPage(append(append([]byte(nil), page...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	var e wire.Enc
	e.Uvar(maxGroupCols + 1)
	if _, err := decodeGroupPage(e.Buf); err == nil {
		t.Error("over-limit column count accepted")
	}
}
