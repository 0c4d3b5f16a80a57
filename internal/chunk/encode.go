package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"scanraw/internal/schema"
)

// Vector page encoding. Columns are stored inside the database one vector
// per (column, chunk) page so that a loaded column can be memory-mapped
// back into the in-memory array representation (paper §3.1, "each column is
// assigned an independent set of pages which can be directly mapped into
// the in-memory array representation").
//
// Layout:
//
//	byte 0       type tag
//	bytes 1..4   row count (uint32 LE)
//	Int64/Float64: rows * 8 bytes of values (LE)
//	Str:           rows * 4 bytes of lengths, then concatenated string bytes

const vectorHeaderSize = 5

// tagInt32 marks an Int64 vector whose values all fit in int32 and are
// stored as 4 bytes each. The paper's synthetic workload is uint values
// below 2^31, so its binary representation is ~0.4x the text size; the
// narrow encoding preserves that ratio (and with it the database-vs-
// external-tables gap of Fig. 8).
const tagInt32 = 0x80 | byte(schema.Int64)

// tagStrDict marks a dictionary-encoded string vector: up to 255 distinct
// values stored once, rows as one-byte codes. Low-cardinality columns like
// SAM's RNAME and CIGAR shrink by an order of magnitude.
const tagStrDict = 0x80 | byte(schema.Str)

// EncodeVector serializes v into the page format. A narrow vector is an
// int32 page as it stands.
func EncodeVector(v *Vector) []byte {
	n := v.Len()
	switch v.Type {
	case schema.Int64:
		if v.Int32 != nil {
			return encodeInt32(v.Int32)
		}
		if fitsInt32(v.Ints) {
			return encodeInt32(v.Ints)
		}
		out := make([]byte, vectorHeaderSize+8*n)
		out[0] = byte(schema.Int64)
		binary.LittleEndian.PutUint32(out[1:], uint32(n))
		for i, x := range v.Ints {
			binary.LittleEndian.PutUint64(out[vectorHeaderSize+8*i:], uint64(x))
		}
		return out
	case schema.Float64:
		out := make([]byte, vectorHeaderSize+8*n)
		out[0] = byte(schema.Float64)
		binary.LittleEndian.PutUint32(out[1:], uint32(n))
		for i, x := range v.Floats {
			binary.LittleEndian.PutUint64(out[vectorHeaderSize+8*i:], math.Float64bits(x))
		}
		return out
	case schema.Str:
		if p, ok := encodeStrDict(v); ok {
			return p
		}
		total := 0
		for _, s := range v.Strs {
			total += len(s)
		}
		out := make([]byte, vectorHeaderSize+4*n+total)
		out[0] = byte(schema.Str)
		binary.LittleEndian.PutUint32(out[1:], uint32(n))
		off := vectorHeaderSize
		for _, s := range v.Strs {
			binary.LittleEndian.PutUint32(out[off:], uint32(len(s)))
			off += 4
		}
		for _, s := range v.Strs {
			copy(out[off:], s)
			off += len(s)
		}
		return out
	default:
		panic(fmt.Sprintf("chunk: cannot encode vector of type %v", v.Type))
	}
}

// encodeInt32 writes an int32 page of xs, each of which fits in int32.
func encodeInt32[T int32 | int64](xs []T) []byte {
	out := make([]byte, vectorHeaderSize+4*len(xs))
	out[0] = tagInt32
	binary.LittleEndian.PutUint32(out[1:], uint32(len(xs)))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[vectorHeaderSize+4*i:], uint32(x))
	}
	return out
}

// DecodeVector parses a page produced by EncodeVector. An int32 page decodes
// to a narrow Int64 vector (Int32 set, 4 bytes a value), every other page to
// the one representation of its type. The vector comes from the pools
// without the clear — every element is overwritten — so the caller owns one
// pooled vector: it hands it on (BinaryChunk.SetColumn, recycled with the
// chunk) or returns it with PutVector. A failed decode has already returned
// whatever it took.
func DecodeVector(p []byte) (*Vector, error) {
	if len(p) < vectorHeaderSize {
		return nil, fmt.Errorf("chunk: vector page too short (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[1:]))
	body := p[vectorHeaderSize:]
	if p[0] == tagStrDict {
		return decodeStrDict(n, body)
	}
	if p[0] == tagInt32 {
		if len(body) < 4*n {
			return nil, fmt.Errorf("chunk: truncated int32 page: need %d bytes, have %d", 4*n, len(body))
		}
		v := getNarrow(n)
		copyInt32(v.Int32, body[:4*n])
		return v, nil
	}
	t := schema.Type(p[0])
	switch t {
	case schema.Int64, schema.Float64:
		if len(body) < 8*n {
			return nil, fmt.Errorf("chunk: truncated numeric page: need %d bytes, have %d", 8*n, len(body))
		}
		v := getVector(t, n, false)
		if t == schema.Int64 {
			copyInt64(v.Ints, body[:8*n])
		} else {
			copyFloat64(v.Floats, body[:8*n])
		}
		return v, nil
	case schema.Str:
		if len(body) < 4*n {
			return nil, fmt.Errorf("chunk: truncated string-length block: need %d bytes, have %d", 4*n, len(body))
		}
		lens, data := body[:4*n], body[4*n:]
		total := 0
		for i := 0; i < n; i++ {
			total += int(binary.LittleEndian.Uint32(lens[4*i:]))
		}
		if len(data) < total {
			return nil, fmt.Errorf("chunk: truncated string data: need %d bytes, have %d", total, len(data))
		}
		v := getVector(schema.Str, n, false)
		off := 0
		for i := range v.Strs {
			l := int(binary.LittleEndian.Uint32(lens[4*i:]))
			v.Strs[i] = string(data[off : off+l])
			off += l
		}
		return v, nil
	default:
		return nil, fmt.Errorf("chunk: unknown vector type tag %d", p[0])
	}
}

// The numeric page loops below move a block per step: the fixed-size
// windows dst[:8:8] and src[:32:32] let the compiler drop every bounds check
// inside the block, and four 8-byte loads replace eight 4-byte ones on an
// int32 page. The bytes are read through encoding/binary, never
// reinterpreted in place: a page body sits at an odd offset (the 5-byte
// header, and a group page packs several), which an unsafe cast would
// misalign. Each loop ends with the one-value-at-a-time form for the tail;
// dst and src shrink in step there, so it carries no bounds check either.

// copyInt32 reads the int32 values of src, 4 bytes each, into dst.
func copyInt32(dst []int32, src []byte) {
	for len(dst) >= 8 && len(src) >= 32 {
		d, s := dst[:8:8], src[:32:32]
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d[0], d[1] = int32(w0), int32(w0>>32)
		d[2], d[3] = int32(w1), int32(w1>>32)
		d[4], d[5] = int32(w2), int32(w2>>32)
		d[6], d[7] = int32(w3), int32(w3>>32)
		dst, src = dst[8:], src[32:]
	}
	for ; len(dst) > 0 && len(src) >= 4; dst, src = dst[1:], src[4:] {
		dst[0] = int32(binary.LittleEndian.Uint32(src))
	}
}

// copyInt64 reads the int64 values of src, 8 bytes each, into dst.
func copyInt64(dst []int64, src []byte) {
	for len(dst) >= 4 && len(src) >= 32 {
		d, s := dst[:4:4], src[:32:32]
		d[0] = int64(binary.LittleEndian.Uint64(s[0:]))
		d[1] = int64(binary.LittleEndian.Uint64(s[8:]))
		d[2] = int64(binary.LittleEndian.Uint64(s[16:]))
		d[3] = int64(binary.LittleEndian.Uint64(s[24:]))
		dst, src = dst[4:], src[32:]
	}
	for ; len(dst) > 0 && len(src) >= 8; dst, src = dst[1:], src[8:] {
		dst[0] = int64(binary.LittleEndian.Uint64(src))
	}
}

// copyFloat64 reads the float64 values of src, 8 bytes each, into dst; the
// bits move unchanged, NaN payloads included.
func copyFloat64(dst []float64, src []byte) {
	for len(dst) >= 4 && len(src) >= 32 {
		d, s := dst[:4:4], src[:32:32]
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(s[0:]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(s[8:]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(s[16:]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(s[24:]))
		dst, src = dst[4:], src[32:]
	}
	for ; len(dst) > 0 && len(src) >= 8; dst, src = dst[1:], src[8:] {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src))
	}
}

// encodeStrDict attempts the dictionary encoding:
//
//	byte 0       tagStrDict
//	bytes 1..4   row count (uint32 LE)
//	byte 5       dictionary size - 1
//	entries:     uint16 LE length + bytes, per distinct value
//	rows:        one byte code per row
//
// It declines (ok=false) when there are more than 256 distinct values,
// an entry exceeds uint16, or plain encoding would be smaller.
func encodeStrDict(v *Vector) ([]byte, bool) {
	n := len(v.Strs)
	if n == 0 {
		return nil, false
	}
	codes := make(map[string]int, 16)
	order := make([]string, 0, 16)
	dictBytes := 0
	for _, s := range v.Strs {
		if _, ok := codes[s]; ok {
			continue
		}
		if len(codes) == 256 || len(s) > 1<<16-1 {
			return nil, false
		}
		codes[s] = len(order)
		order = append(order, s)
		dictBytes += 2 + len(s)
	}
	size := vectorHeaderSize + 1 + dictBytes + n
	plain := vectorHeaderSize + 4*n
	for _, s := range v.Strs {
		plain += len(s)
	}
	if size >= plain {
		return nil, false
	}
	out := make([]byte, 0, size)
	var hdr [vectorHeaderSize + 1]byte
	hdr[0] = tagStrDict
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	hdr[vectorHeaderSize] = byte(len(order) - 1)
	out = append(out, hdr[:]...)
	for _, s := range order {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
		out = append(out, l[:]...)
		out = append(out, s...)
	}
	for _, s := range v.Strs {
		out = append(out, byte(codes[s]))
	}
	return out, true
}

func decodeStrDict(n int, body []byte) (*Vector, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("chunk: truncated dictionary header")
	}
	ndict := int(body[0]) + 1
	off := 1
	dict := make([]string, ndict)
	for i := 0; i < ndict; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("chunk: truncated dictionary entry length")
		}
		l := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+l > len(body) {
			return nil, fmt.Errorf("chunk: truncated dictionary entry")
		}
		dict[i] = string(body[off : off+l])
		off += l
	}
	if off+n > len(body) {
		return nil, fmt.Errorf("chunk: truncated dictionary codes: need %d, have %d", n, len(body)-off)
	}
	v := getVector(schema.Str, n, false)
	codes := body[off : off+n]
	for i, c := range codes {
		if int(c) >= ndict {
			PutVector(v)
			return nil, fmt.Errorf("chunk: dictionary code %d out of range [0,%d)", c, ndict)
		}
		v.Strs[i] = dict[c]
	}
	// The codes are copied: the vector outlives the page it was read from.
	v.Dict, v.Codes = dict, append(v.Codes, codes...)
	checkCodes(v)
	return v, nil
}

func fitsInt32(xs []int64) bool {
	for _, x := range xs {
		if x < -1<<31 || x >= 1<<31 {
			return false
		}
	}
	return true
}
