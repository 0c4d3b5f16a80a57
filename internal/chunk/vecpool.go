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
//
// Narrow Int64 vectors (Int32 set) have a pool of their own, so a pooled
// vector keeps the one representation it was made with.
var vecPools = [3]sync.Pool{
	{New: func() any { return &Vector{Type: schema.Int64} }},
	{New: func() any { return &Vector{Type: schema.Float64} }},
	{New: func() any { return &Vector{Type: schema.Str} }},
}

var narrowPool = sync.Pool{New: func() any { return &Vector{Type: schema.Int64, Int32: []int32{}} }}

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

// getNarrow is getVector for a narrow Int64 vector of n values, without the
// clear: its one caller, DecodeVector, writes every element.
func getNarrow(n int) *Vector {
	v := narrowPool.Get().(*Vector)
	if cap(v.Int32) < n {
		v.Int32 = make([]int32, n)
	} else {
		v.Int32 = v.Int32[:n]
	}
	noteGetVector(v)
	return v
}

// Widen returns the values of an Int64 vector as int64s, for a consumer
// without a narrow path: a wide vector's own Ints, with scratch nil, or a
// narrow vector's values sign-extended into scratch, a pooled wide vector
// the caller releases with PutVector once it is done with them (PutVector
// of nil does nothing). v is only read.
func Widen(v *Vector) (ints []int64, scratch *Vector) {
	if v.Int32 == nil {
		return v.Ints, nil
	}
	scratch = getVector(schema.Int64, len(v.Int32), false)
	dst, src := scratch.Ints, v.Int32
	// Eight values a step over fixed windows, as the page decoders do: an
	// indexed sign-extending load costs an address computation per value.
	for len(dst) >= 8 && len(src) >= 8 {
		d, s := dst[:8:8], src[:8:8]
		d[0], d[1], d[2], d[3] = int64(s[0]), int64(s[1]), int64(s[2]), int64(s[3])
		d[4], d[5], d[6], d[7] = int64(s[4]), int64(s[5]), int64(s[6]), int64(s[7])
		dst, src = dst[8:], src[8:]
	}
	for ; len(dst) > 0 && len(src) > 0; dst, src = dst[1:], src[1:] {
		dst[0] = int64(src[0])
	}
	return scratch.Ints, scratch
}

// Size is the bytes of values v holds, by representation: 4 a value for a
// narrow Int64 vector, 8 for a wide one or a Float64 one, and for a string
// vector a 16-byte header a row plus the strings' bytes — or, when it
// carries a dictionary, one code a row plus each entry's header and bytes
// once, since every row's string is its entry's. It counts the values held,
// not the backing capacity: a pooled slice may be longer than the chunk it
// serves (it last served a longer one), and a charge that depended on which
// slice the pool handed out would make the cache hold a different number of
// the same chunks from one run to the next.
func (v *Vector) Size() int64 {
	switch {
	case v.Type == schema.Int64 && v.Int32 != nil:
		return 4 * int64(len(v.Int32))
	case v.Type == schema.Int64:
		return 8 * int64(len(v.Ints))
	case v.Type == schema.Float64:
		return 8 * int64(len(v.Floats))
	}
	n := 16 * int64(len(v.Strs))
	if v.Dict != nil {
		n += int64(len(v.Codes))
		for _, s := range v.Dict {
			n += 16 + int64(len(s))
		}
		return n
	}
	for _, s := range v.Strs {
		n += int64(len(s))
	}
	return n
}

// PutVector returns a vector to the pool of its representation. The caller
// must not use v (or any of its backing slices) afterwards; string values
// previously copied out of v.Strs stay valid because string contents are
// immutable.
func PutVector(v *Vector) {
	if v == nil || !v.Type.Valid() {
		return
	}
	notePutVector(v)
	if v.Int32 != nil {
		narrowPool.Put(v)
		return
	}
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
