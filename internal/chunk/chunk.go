// Package chunk defines the three data representations that flow through
// the SCANRAW pipeline (paper §3.1):
//
//   - TextChunk: a horizontal portion of the raw file — a sequence of
//     complete lines. Chunks are the unit of reading, scheduling and
//     processing.
//   - PositionalMap: the output of TOKENIZE — for every tuple in a text
//     chunk, the start/end offsets of each attribute.
//   - BinaryChunk: the output of PARSE/MAP — tuples vertically partitioned
//     along columns represented as arrays in memory. This is both the
//     execution engine's processing representation and the format in which
//     data are stored inside the database; not all columns of a table have
//     to be present in a binary chunk.
package chunk

import (
	"fmt"

	"scanraw/internal/schema"
)

// TextChunk is a raw-file fragment holding whole lines.
type TextChunk struct {
	// ID is the chunk ordinal within the raw file (0-based).
	ID int
	// Data holds the raw bytes. Every line is terminated by '\n' except
	// possibly the last.
	Data []byte
	// Lines is the number of lines (tuples) in Data.
	Lines int
}

// PositionalMap records, for each tuple of a text chunk, where each
// tokenized attribute begins and ends inside the chunk's Data. With
// selective tokenizing only a prefix of the attributes may be tokenized
// (NumCols < the schema's column count); PARSE can resume the scan from
// the last recorded position (paper §2, "partial map").
type PositionalMap struct {
	// NumRows is the number of tuples covered.
	NumRows int
	// NumCols is how many leading attributes were tokenized per tuple.
	NumCols int
	// Starts and Ends are flattened [NumRows][NumCols] offset arrays into
	// the owning TextChunk's Data: attribute (r,c) is
	// Data[Starts[r*NumCols+c]:Ends[r*NumCols+c]].
	Starts []int32
	Ends   []int32
	// LineEnd[r] is the offset just past tuple r's last byte (excluding
	// the newline), so a partial map can be extended by scanning forward.
	LineEnd []int32
}

// Field returns the [start,end) offsets of attribute c of row r.
// It panics when the indices are out of range, matching slice semantics.
func (m *PositionalMap) Field(r, c int) (int32, int32) {
	if c >= m.NumCols {
		panic(fmt.Sprintf("chunk: field %d not tokenized (map has %d cols)", c, m.NumCols))
	}
	i := r*m.NumCols + c
	return m.Starts[i], m.Ends[i]
}

// Vector is a typed column of values. Exactly one of the payload slices is
// populated, matching Type.
//
// An Int64 vector has two representations. A wide one holds Ints. A narrow
// one holds Int32, the values of an int32 page (DecodeVector) at the page's
// width, and Ints is nil. The kernels that have a narrow path read Int32
// directly; every other consumer reads the values through IntAt, or asks
// Widen for an int64 copy. Nothing writes into a vector a cache entry holds:
// it is shared by concurrent queries.
//
// A string vector decoded from a dictionary page also carries the page's
// encoding, so the engine can evaluate a predicate or find a group once per
// distinct value: Dict holds the entries and Codes one code per row, with
// Strs[i] == Dict[Codes[i]] for every row. Only DecodeVector sets them.
// Dict is nil on every other vector, and Codes then means nothing.
type Vector struct {
	Type   schema.Type
	Ints   []int64
	Int32  []int32
	Floats []float64
	Strs   []string
	Dict   []string
	Codes  []byte
}

// NewVector allocates a vector of n zero values of type t.
func NewVector(t schema.Type, n int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case schema.Int64:
		v.Ints = make([]int64, n)
	case schema.Float64:
		v.Floats = make([]float64, n)
	case schema.Str:
		v.Strs = make([]string, n)
	default:
		panic(fmt.Sprintf("chunk: invalid vector type %v", t))
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Type {
	case schema.Int64:
		if v.Int32 != nil {
			return len(v.Int32)
		}
		return len(v.Ints)
	case schema.Float64:
		return len(v.Floats)
	default:
		return len(v.Strs)
	}
}

// IntAt returns value i of an Int64 vector, narrow or wide.
func (v *Vector) IntAt(i int) int64 {
	if v.Int32 != nil {
		return int64(v.Int32[i])
	}
	return v.Ints[i]
}

// reprViolation describes how an Int64 vector breaks the one-representation
// rule — Int32 and Ints both set, or the held one not rows long — or returns
// "" when it keeps it or is not Int64. The invariants build checks it where a
// vector is installed in a chunk (checkRepr).
func reprViolation(v *Vector, rows int) string {
	switch {
	case v.Type != schema.Int64:
		return ""
	case v.Int32 != nil && v.Ints != nil:
		return fmt.Sprintf("int64 vector holds %d int32 and %d int64 values", len(v.Int32), len(v.Ints))
	case v.Len() != rows:
		return fmt.Sprintf("int64 vector holds %d values for %d rows", v.Len(), rows)
	}
	return ""
}

// codeViolation describes how a vector that carries a dictionary breaks its
// code invariant — one code per row, every code inside the dictionary, every
// row the entry its code names — or returns "" when it keeps it or carries
// none. The invariants build checks it wherever a coded vector is made or
// installed (checkCodes).
func codeViolation(v *Vector) string {
	if v.Dict == nil {
		return ""
	}
	if len(v.Codes) != len(v.Strs) {
		return fmt.Sprintf("%d codes for %d strings", len(v.Codes), len(v.Strs))
	}
	for i, c := range v.Codes {
		if int(c) >= len(v.Dict) || v.Strs[i] != v.Dict[c] {
			return fmt.Sprintf("row %d: code %d does not name %q", i, c, v.Strs[i])
		}
	}
	return ""
}

// BinaryChunk is the columnar processing representation of one chunk.
type BinaryChunk struct {
	// ID is the chunk ordinal within the raw file.
	ID int
	// Rows is the tuple count.
	Rows int

	sch  *schema.Schema
	cols []*Vector // indexed by schema ordinal; nil = column absent
}

// NewBinary creates an empty binary chunk (no columns present yet) for the
// given schema.
func NewBinary(sch *schema.Schema, id, rows int) *BinaryChunk {
	return &BinaryChunk{ID: id, Rows: rows, sch: sch, cols: make([]*Vector, sch.NumColumns())}
}

// Schema returns the table schema the chunk belongs to.
func (b *BinaryChunk) Schema() *schema.Schema { return b.sch }

// SetColumn installs vector v as column ordinal i. The vector's type and
// length must match the schema and row count, and an Int64 vector holds one
// representation (the invariants build panics on one that holds both).
func (b *BinaryChunk) SetColumn(i int, v *Vector) error {
	if i < 0 || i >= len(b.cols) {
		return fmt.Errorf("chunk: column %d out of range [0,%d)", i, len(b.cols))
	}
	if v.Type != b.sch.Column(i).Type {
		return fmt.Errorf("chunk: column %d type %v does not match schema type %v",
			i, v.Type, b.sch.Column(i).Type)
	}
	checkRepr(v, b.Rows)
	if v.Len() != b.Rows {
		return fmt.Errorf("chunk: column %d has %d values, chunk has %d rows", i, v.Len(), b.Rows)
	}
	checkCodes(v)
	b.cols[i] = v
	return nil
}

// Column returns the vector for column ordinal i, or nil when the column is
// not present in this chunk.
func (b *BinaryChunk) Column(i int) *Vector {
	if i < 0 || i >= len(b.cols) {
		return nil
	}
	return b.cols[i]
}

// Has reports whether column ordinal i is present.
func (b *BinaryChunk) Has(i int) bool { return b.Column(i) != nil }

// HasAll reports whether every listed column ordinal is present.
func (b *BinaryChunk) HasAll(idxs []int) bool {
	for _, i := range idxs {
		if !b.Has(i) {
			return false
		}
	}
	return true
}

// Present returns the ordinals of the columns present in the chunk, in
// schema order.
func (b *BinaryChunk) Present() []int {
	var out []int
	for i, v := range b.cols {
		if v != nil {
			out = append(out, i)
		}
	}
	return out
}

// Size is the bytes of the columns present (Vector.Size summed).
func (b *BinaryChunk) Size() int64 {
	var n int64
	for _, v := range b.cols {
		if v != nil {
			n += v.Size()
		}
	}
	return n
}

// Clone returns a shallow copy of the chunk: a new column table pointing
// at the same (immutable) vectors. Cloning lets a cache merge columns
// copy-on-write so concurrent readers of the old chunk are never affected.
func (b *BinaryChunk) Clone() *BinaryChunk {
	nb := NewBinary(b.sch, b.ID, b.Rows)
	copy(nb.cols, b.cols)
	return nb
}

// RecycleColumns returns the chunk's column vectors to the shared pools
// (see GetVector) and clears the column table. Every vector of a chunk —
// converted by a kernel or decoded from a page (DecodeVector) — came from
// those pools, so this is the put that balances each get. Only the code that
// can prove exclusive ownership may call it: no other BinaryChunk shares the
// vectors (Clone and Merge alias them across copies of the *same* chunk ID)
// and no reader still holds the chunk — in the operator that means a cleanly
// evicted, unpinned cache entry. A vector that a cache merge dropped as a
// duplicate (the entry already held that column) is in no entry, so no
// eviction recycles it: the delivery that carried it in may still be reading
// it, and it is left to the garbage collector.
func (b *BinaryChunk) RecycleColumns() {
	for i, v := range b.cols {
		if v != nil {
			PutVector(v)
			b.cols[i] = nil
		}
	}
}

// Merge copies the columns present in o but absent here into b. Both chunks
// must describe the same chunk ID, row count, and schema. It is used when a
// chunk is partially cached and the missing columns arrive from the raw
// file or the database.
func (b *BinaryChunk) Merge(o *BinaryChunk) error {
	if o.ID != b.ID || o.Rows != b.Rows || !o.sch.Equal(b.sch) {
		return fmt.Errorf("chunk: cannot merge chunk %d(%d rows) into %d(%d rows)", o.ID, o.Rows, b.ID, b.Rows)
	}
	for i, v := range o.cols {
		if v != nil && b.cols[i] == nil {
			b.cols[i] = v
		}
	}
	return nil
}
