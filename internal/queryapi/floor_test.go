//go:build experiments

package queryapi

import (
	"bytes"
	"strconv"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/testutil"
)

// strconvAppendChunk is the reference the floor is taken against:
// AppendChunk over all-int columns with each cell through strconv.AppendInt.
func strconvAppendChunk(dst []byte, cols []*chunk.Vector, n int) []byte {
	for r := 0; r < n; r++ {
		dst = append(dst, '[')
		for i, v := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v.Ints[r], 10)
		}
		dst = append(dst, ']', '\n')
	}
	return dst
}

// TestRowEncoderSpeedupFloor: encoding a 65 536-row chunk of four 31-bit
// int columns, the stream_rows shape, is at least 1.5x faster than through
// strconv.AppendInt, for the same bytes.
func TestRowEncoderSpeedupFloor(t *testing.T) {
	const n = 1 << 16
	_, bc := intChunk(t, n)
	cols := []*chunk.Vector{bc.Column(0), bc.Column(1), bc.Column(2), bc.Column(3)}
	if !bytes.Equal(AppendChunk(nil, cols, nil, n), strconvAppendChunk(nil, cols, n)) {
		t.Fatal("AppendChunk differs from the strconv reference")
	}
	bench := func(encode func([]byte) []byte) func(*testing.B) {
		return func(b *testing.B) {
			buf := encode(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encode(buf[:0])
			}
		}
	}
	testutil.SpeedupFloor(t, "row_encoder_speedup",
		bench(func(dst []byte) []byte { return strconvAppendChunk(dst, cols, n) }),
		bench(func(dst []byte) []byte { return AppendChunk(dst, cols, nil, n) }), 1.5)
}
