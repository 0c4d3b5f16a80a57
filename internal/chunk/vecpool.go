package chunk

import (
	"sync"

	"scanraw/internal/schema"
)

// Vector recycling. Expression evaluation and column conversion produce one
// short-lived Vector per chunk per operand; at chunk sizes of 2^13 rows the
// backing slices dominate the engine's allocation profile. Vectors whose
// lifetime provably ends with the consuming call can be returned here and
// reused for the next chunk.
//
// Ownership rule: a vector obtained from GetVector (or DecodeVector, which
// takes its vector here) may be released with PutVector exactly once, and
// only by the code that obtained it. Vectors installed into a BinaryChunk
// (cacheable, shared across queries) are only released through
// BinaryChunk.RecycleColumns, whose exclusive-ownership contract makes the
// release safe.
var vecPools = [3]sync.Pool{
	{New: func() any { return &Vector{Type: schema.Int64} }},
	{New: func() any { return &Vector{Type: schema.Float64} }},
	{New: func() any { return &Vector{Type: schema.Str} }},
}

// GetVector returns a zeroed vector of n values of type t, reusing pooled
// backing storage when available. It never carries a dictionary.
func GetVector(t schema.Type, n int) *Vector { return getVector(t, n, true) }

// GetVectorUncleared is GetVector without the clear, for a caller that writes
// every element before it reads any (see getVector).
func GetVectorUncleared(t schema.Type, n int) *Vector { return getVector(t, n, false) }

// getVector is GetVector with the clear optional: a caller that overwrites
// every element (DecodeVector, GetVectorUncleared) passes zero=false and
// skips it. Such a vector holds whatever its previous owner left — stale
// values, stale strings — until the caller has filled it. A string vector's
// dictionary is dropped either way (Codes keeps only its capacity), so stale
// codes never describe fresh strings.
func getVector(t schema.Type, n int, zero bool) *Vector {
	v := vecPools[t].Get().(*Vector)
	switch t {
	case schema.Int64:
		if cap(v.Ints) < n {
			v.Ints = make([]int64, n)
		} else if v.Ints = v.Ints[:n]; zero {
			clear(v.Ints)
		}
	case schema.Float64:
		if cap(v.Floats) < n {
			v.Floats = make([]float64, n)
		} else if v.Floats = v.Floats[:n]; zero {
			clear(v.Floats)
		}
	case schema.Str:
		if cap(v.Strs) < n {
			v.Strs = make([]string, n)
		} else if v.Strs = v.Strs[:n]; zero {
			clear(v.Strs)
		}
		v.Dict, v.Codes = nil, v.Codes[:0]
	default:
		panic("chunk: invalid vector type")
	}
	noteGetVector(v)
	return v
}

// PutVector returns a vector to the pool. The caller must not use v (or any
// of its backing slices) afterwards; string values previously copied out of
// v.Strs stay valid because string contents are immutable.
func PutVector(v *Vector) {
	if v == nil || !v.Type.Valid() {
		return
	}
	notePutVector(v)
	vecPools[v.Type].Put(v)
}

// Positional-map recycling. TOKENIZE produces one map per chunk — three
// offset arrays sized rows×cols — and PARSE is usually its only consumer,
// so the backing storage can cycle between the two stages instead of
// being reallocated per chunk. Maps retained by the operator's
// positional-map cache must never be released.
var pmPool = sync.Pool{New: func() any { return new(PositionalMap) }}

// GetPositionalMap returns an empty positional map whose backing arrays
// have capacity for rows×cols offsets (and rows line ends), reusing pooled
// storage when available. The arrays have length zero — the tokenizer
// appends and sets NumRows/NumCols itself.
func GetPositionalMap(rows, cols int) *PositionalMap {
	m := pmPool.Get().(*PositionalMap)
	n := rows * cols
	if cap(m.Starts) < n {
		m.Starts = make([]int32, 0, n)
	} else {
		m.Starts = m.Starts[:0]
	}
	if cap(m.Ends) < n {
		m.Ends = make([]int32, 0, n)
	} else {
		m.Ends = m.Ends[:0]
	}
	if cap(m.LineEnd) < rows {
		m.LineEnd = make([]int32, 0, rows)
	} else {
		m.LineEnd = m.LineEnd[:0]
	}
	m.NumRows, m.NumCols = 0, 0
	noteGetPositionalMap(m)
	return m
}

// PutPositionalMap returns a map's backing storage to the pool. The caller
// must not use m afterwards.
func PutPositionalMap(m *PositionalMap) {
	if m == nil {
		return
	}
	notePutPositionalMap(m)
	pmPool.Put(m)
}
