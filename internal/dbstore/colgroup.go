package dbstore

import (
	"fmt"
	"strings"

	"scanraw/internal/chunk"
	"scanraw/internal/wire"
)

// Column-group pages. A page holds the vectors of a *set* of columns of one
// chunk; the catalog learns each page's column membership and its place in a
// segment blob from the journal (segment.go). The group width is a
// store-level policy knob (SetGroupWidth): width 1 gives one page per column,
// larger widths amortize per-page overhead for columns that are always
// queried together, and width 0 stores the whole chunk as a single
// full-width page (the layout the source paper describes, kept as the
// benchmark baseline).

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

// GroupPartition splits the ordinals [0, ncols) into consecutive groups of
// the given width. Width <= 0 (full-width) or >= ncols yields one group.
func GroupPartition(ncols, width int) [][]int {
	if ncols <= 0 {
		return nil
	}
	if width <= 0 || width >= ncols {
		width = ncols
	}
	groups := make([][]int, 0, (ncols+width-1)/width)
	for lo := 0; lo < ncols; lo += width {
		hi := min(lo+width, ncols)
		g := make([]int, hi-lo)
		for i := range g {
			g[i] = lo + i
		}
		groups = append(groups, g)
	}
	return groups
}

// SetGroupWidth sets the store's column-group width for subsequently
// written pages: how many consecutive schema ordinals share one page.
// 1 (the default) gives one page per column; values <= 0 select full-width
// groups (the whole chunk in a single page). Already-written pages keep
// their recorded grouping — reads cover a request from whatever mix of
// group pages the catalog knows about.
func (s *Store) SetGroupWidth(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w < 0 {
		w = 0
	}
	s.groupWidth = w
}

// GroupWidth returns the store's current column-group width (0 =
// full-width).
func (s *Store) GroupWidth() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.groupWidth
}

// GroupClosure rounds a sorted requested-column set up to the store's
// group-partition boundaries: every returned partition group intersecting
// cols is included whole. Conversion uses the closure so newly converted
// chunks always carry complete groups and every group page is writable.
// With the default width 1 the closure is the request itself.
func (s *Store) GroupClosure(t *Table, cols []int) []int {
	n := t.Schema().NumColumns()
	w := s.GroupWidth()
	if w == 1 || n == 0 {
		return cols
	}
	if w <= 0 || w >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	inGroup := make([]bool, (n+w-1)/w)
	for _, c := range cols {
		if c >= 0 && c < n {
			inGroup[c/w] = true
		}
	}
	var out []int
	for g, in := range inGroup {
		if !in {
			continue
		}
		for c := g * w; c < min((g+1)*w, n); c++ {
			out = append(out, c)
		}
	}
	return out
}

// writeGroups partitions a requested column set along the store's
// group-partition boundaries and drops groups whose columns are already
// loaded in meta (their pages exist; rewriting them is wasted I/O — and it
// is what makes partial-width conversion write only the missing groups).
func (s *Store) writeGroups(t *Table, meta *ChunkMeta, cols []int) [][]int {
	n := t.Schema().NumColumns()
	w := s.GroupWidth()
	if w <= 0 || w > n {
		w = n
	}
	byGroup := make(map[int][]int)
	var order []int
	for _, c := range cols {
		g := c / w
		if _, seen := byGroup[g]; !seen {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], c)
	}
	out := make([][]int, 0, len(order))
	for _, g := range order {
		gc := byGroup[g]
		if meta.LoadedAll(gc) {
			continue
		}
		out = append(out, gc)
	}
	return out
}
