package kernel

import (
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/testutil"
)

// FuzzFusedKernel is the fuzz form of the differential property: for
// arbitrary bytes and an arbitrary (schema, column set, delimiter), the
// fused kernel and the tok→parse pipeline either both error or produce
// identical chunks. typeBits picks column types, colBits the requested
// subset, claimBias perturbs the claimed line count so the framing error
// paths fuzz too.
func FuzzFusedKernel(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6\n"), uint16(0), uint8(0b111), byte(','), uint8(0))
	f.Add([]byte("1.5,a\n-2,b\r\n"), uint16(0b01), uint8(0b10), byte(','), uint8(0))
	f.Add([]byte("x\ty\n"), uint16(0b1010), uint8(0b11), byte('\t'), uint8(1))
	f.Add([]byte("no newline"), uint16(0b10), uint8(1), byte(','), uint8(0))
	f.Add([]byte("9223372036854775807\n"), uint16(0), uint8(1), byte(','), uint8(2))
	// Long enough for parseIntField's word path (18 bytes from the field on):
	// 8, 9, 16 and 17 digits, signs, CRLF, digit and sign delimiters, and a
	// mixed schema for the generic kernel.
	f.Add([]byte("1234567890123456,-12345678,7\n0000000000000042,99999999,-1\n"), uint16(2<<12), uint8(0b111), byte(','), uint8(0))
	f.Add([]byte("-9999999999999999\t10000000000000000\r\n12345678\t123456789\n"), uint16(1<<12), uint8(0b11), byte('\t'), uint8(0))
	f.Add([]byte("123456785123456789012\n98765432109876543\n"), uint16(1<<12), uint8(0b11), byte('5'), uint8(0))
	f.Add([]byte("12345678-87654321-1\n-123456789012345-0-\n"), uint16(2<<12), uint8(0b101), byte('-'), uint8(0))
	f.Add([]byte("x,123456789012,2.5,-87654321\nyy,+1234567890123,1e3,9223372036854775807\n"), uint16(3<<12|0b01_00_10), uint8(0b1111), byte(','), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, typeBits uint16, colBits uint8, delim byte, claimBias uint8) {
		// 1-8 columns, two type bits each (3 → Str like the zero value's
		// modulo); requested subset from colBits, forced non-empty.
		ncols := int(typeBits>>12)%8 + 1
		scols := make([]schema.Column, ncols)
		for i := range scols {
			scols[i] = schema.Column{Name: "c" + string(rune('a'+i)), Type: schema.Type((typeBits >> (2 * i)) % 3)}
		}
		sch := schema.MustNew(scols...)
		var cols []int
		for c := 0; c < ncols; c++ {
			if colBits&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{0}
		}
		tc := &chunk.TextChunk{Data: data, Lines: testutil.CountLines(data) + int(claimBias%3)}

		k, err := For(sch, cols, delim)
		if err != nil {
			t.Fatalf("For: %v", err) // the derived column set is always valid
		}
		want, wantErr := tokParse(sch, tc, delim, cols)
		got, gotErr := k.Convert(tc)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("kernel %s, cols %v, delim %q, lines %d:\n tok+parse err: %v\n fused err:     %v\n data: %q",
				k.Name(), cols, delim, tc.Lines, wantErr, gotErr, data)
		}
		if wantErr != nil {
			return
		}
		requireEqualChunks(t, k.Name(), want, got, cols)
		want.RecycleColumns()
		got.RecycleColumns()
	})
}
