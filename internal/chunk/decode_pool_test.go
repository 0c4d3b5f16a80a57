package chunk

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scanraw/internal/schema"
)

// decodeVectorRef is the decoder as it was before DecodeVector took its
// vectors from the pools: a fresh zeroed vector per page, indexed loops. An
// int32 page decodes narrow, as DecodeVector's does. It is the oracle the
// pooled decoder is held to.
func decodeVectorRef(p []byte) (*Vector, error) {
	if len(p) < vectorHeaderSize {
		return nil, fmt.Errorf("short")
	}
	n := int(binary.LittleEndian.Uint32(p[1:]))
	body := p[vectorHeaderSize:]
	switch {
	case p[0] == tagStrDict:
		if len(body) < 1 {
			return nil, fmt.Errorf("truncated")
		}
		ndict, off := int(body[0])+1, 1
		dict := make([]string, ndict)
		for i := range dict {
			if off+2 > len(body) {
				return nil, fmt.Errorf("truncated")
			}
			l := int(binary.LittleEndian.Uint16(body[off:]))
			if off += 2; off+l > len(body) {
				return nil, fmt.Errorf("truncated")
			}
			dict[i] = string(body[off : off+l])
			off += l
		}
		if off+n > len(body) {
			return nil, fmt.Errorf("truncated")
		}
		v := NewVector(schema.Str, n)
		for i := 0; i < n; i++ {
			if int(body[off+i]) >= ndict {
				return nil, fmt.Errorf("code out of range")
			}
			v.Strs[i] = dict[body[off+i]]
		}
		return v, nil
	case p[0] == tagInt32:
		if len(body) < 4*n {
			return nil, fmt.Errorf("truncated")
		}
		v := &Vector{Type: schema.Int64, Int32: make([]int32, n)}
		for i := 0; i < n; i++ {
			v.Int32[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return v, nil
	}
	switch t := schema.Type(p[0]); t {
	case schema.Int64, schema.Float64:
		if len(body) < 8*n {
			return nil, fmt.Errorf("truncated")
		}
		v := NewVector(t, n)
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint64(body[8*i:])
			if t == schema.Int64 {
				v.Ints[i] = int64(bits)
			} else {
				v.Floats[i] = math.Float64frombits(bits)
			}
		}
		return v, nil
	case schema.Str:
		if len(body) < 4*n {
			return nil, fmt.Errorf("truncated")
		}
		v := NewVector(schema.Str, n)
		off := 4 * n
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(body[4*i:]))
			if off+l > len(body) {
				return nil, fmt.Errorf("truncated")
			}
			v.Strs[i] = string(body[off : off+l])
			off += l
		}
		return v, nil
	}
	return nil, fmt.Errorf("unknown tag")
}

// poisonPools leaves garbage vectors in every pool: longer than any test
// page, every element a value no test page holds. A decoder that trusted a
// pooled vector to be zeroed, or sized it by capacity, shows it.
func poisonPools() {
	const n = 3 * 8192
	for i := 0; i < 4; i++ {
		iv, fv, sv := NewVector(schema.Int64, n), NewVector(schema.Float64, n), NewVector(schema.Str, n)
		nv := &Vector{Type: schema.Int64, Int32: make([]int32, n)}
		for j := 0; j < n; j++ {
			iv.Ints[j], fv.Floats[j], sv.Strs[j] = -0x0BADBADBADBAD, math.Inf(-1), "stale"
			nv.Int32[j] = -0x0BADBAD
		}
		// Handed over as a live owner would: taken, then put.
		for _, v := range []*Vector{iv, nv, fv, sv} {
			noteGetVector(v)
			PutVector(v)
		}
	}
}

// checkAgainstRef decodes p through the poisoned pools and through the
// reference and requires the same outcome; the pooled vector goes back, so
// the next page meets it again as garbage.
func checkAgainstRef(t *testing.T, p []byte) {
	t.Helper()
	want, wantErr := decodeVectorRef(p)
	poisonPools()
	got, err := DecodeVector(p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeVector err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !vectorsBitEqual(got, want) {
		t.Fatalf("pooled decode differs from the NewVector reference (%v, %d rows)", want.Type, want.Len())
	}
	if (got.Int32 != nil) != (want.Int32 != nil) || (got.Int32 != nil && got.Ints != nil) {
		t.Fatalf("decoded representation: %d int32 and %d int64 values; the reference holds %d int32 values",
			len(got.Int32), len(got.Ints), len(want.Int32))
	}
	PutVector(got)
}

// pageKinds builds one vector of every page kind at the given row count.
func pageKinds(rows int) map[string]*Vector {
	narrow, wide := NewVector(schema.Int64, rows), NewVector(schema.Int64, rows)
	fl, plain, dict := NewVector(schema.Float64, rows), NewVector(schema.Str, rows), NewVector(schema.Str, rows)
	for i := 0; i < rows; i++ {
		narrow.Ints[i] = int64(i*7919) % (1 << 31)
		wide.Ints[i] = int64(i)<<33 - 5
		fl.Floats[i] = float64(i) / 3
		plain.Strs[i] = fmt.Sprintf("read-%d", i)
		dict.Strs[i] = []string{"chr1", "chr2", "", "chrX"}[i%4]
	}
	if rows > 0 {
		fl.Floats[0] = math.NaN()
	}
	return map[string]*Vector{"int32-narrow": narrow, "int64": wide, "float64": fl, "plain-string": plain, "dictionary-string": dict}
}

func TestDecodePoisonedPool(t *testing.T) {
	// A full chunk, the short trailing chunk of a file, and no rows at all.
	for _, rows := range []int{8192, 1237, 0} {
		for kind, v := range pageKinds(rows) {
			t.Run(fmt.Sprintf("%s/%d", kind, rows), func(t *testing.T) {
				p := EncodeVector(v)
				checkAgainstRef(t, p)
				// The cuts take the error paths, which must
				// agree with the reference too (and hand their vector back:
				// see TestDecodeFailureReturnsVector under -tags invariants).
				for _, cut := range []int{0, 3, vectorHeaderSize, len(p) / 2, len(p) - 1} {
					if cut < len(p) {
						checkAgainstRef(t, p[:cut])
					}
				}
			})
		}
	}
	// A dictionary page whose last row carries a code past the dictionary:
	// the decoder has taken its vector by then.
	dict := pageKinds(64)["dictionary-string"]
	p := EncodeVector(dict)
	if p[0] != tagStrDict {
		t.Fatalf("fixture is not a dictionary page (tag %#x)", p[0])
	}
	p[len(p)-1] = 0xFF
	checkAgainstRef(t, p)
}

// TestFuzzCorpusPoisonedPool runs FuzzDecodeVector's seed corpus through the
// poisoned-pool differential.
func TestFuzzCorpusPoisonedPool(t *testing.T) {
	for _, p := range fuzzSeeds() {
		checkAgainstRef(t, p)
	}
}

// TestDecodeRetainsNothingOfThePage: a page buffer is reused once its
// vectors are decoded, so nothing a vector holds — its dictionary codes
// included — may alias it.
func TestDecodeRetainsNothingOfThePage(t *testing.T) {
	for kind, src := range pageKinds(1237) {
		p := EncodeVector(src)
		v, err := DecodeVector(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p {
			p[i] = 0xDB
		}
		if !vectorsBitEqual(v, src) {
			t.Errorf("%s: values changed with the page", kind)
		}
		if msg := codeViolation(v); msg != "" {
			t.Errorf("%s: codes changed with the page: %s", kind, msg)
		}
		PutVector(v)
	}
}

// TestRecycledVectorDropsCodes: a vector decoded from a dictionary page
// carries its codes into the pool; whoever takes it next must get a vector
// without a dictionary, or the engine would read stale codes beside fresh
// strings. Taken by GetVector and by DecodeVector of a plain-string page
// here; by a kernel conversion in internal/kernel
// (TestConvertDropsRecycledCodes) — this package cannot import the kernels.
func TestRecycledVectorDropsCodes(t *testing.T) {
	dictPage := EncodeVector(pageKinds(64)["dictionary-string"])
	plainPage := EncodeVector(pageKinds(1024)["plain-string"]) // past 256 distinct values
	if plainPage[0] != byte(schema.Str) {
		t.Fatalf("fixture is not a plain string page (tag %#x)", plainPage[0])
	}
	for name, take := range map[string]func(t *testing.T) *Vector{
		"GetVector": func(*testing.T) *Vector { return GetVector(schema.Str, 64) },
		"DecodeVector/plain-string": func(t *testing.T) *Vector {
			v, err := DecodeVector(plainPage)
			if err != nil {
				t.Fatal(err)
			}
			return v
		},
	} {
		t.Run(name, func(t *testing.T) {
			// The pool may drop a put (it does at random under the race
			// detector), so count the takes that met the coded vector.
			reused := 0
			for i := 0; i < 100; i++ {
				coded, err := DecodeVector(dictPage)
				if err != nil {
					t.Fatal(err)
				}
				if coded.Dict == nil || len(coded.Codes) != 64 {
					t.Fatalf("a dictionary page decoded without its codes (%d codes)", len(coded.Codes))
				}
				PutVector(coded)
				v := take(t)
				if v == coded {
					reused++
				}
				if v.Dict != nil || len(v.Codes) != 0 {
					t.Fatalf("taken vector carries a dictionary of %d entries and %d codes", len(v.Dict), len(v.Codes))
				}
				PutVector(v)
			}
			if reused == 0 {
				t.Fatal("the pool never handed the coded vector back; the test checked nothing")
			}
		})
	}
}

var benchVec *Vector

// TestDecodeBlockedLoops holds the numeric decoders' block-per-step loops to
// the one-value-at-a-time reference at every way a page can meet them: row
// counts on either side of each block boundary (0–33, and a full chunk ± 1)
// and page bodies at every alignment mod 8, since a page starts at any
// offset inside a group page. The values are hand-written bits — int32
// extremes, wide ints, and NaNs with payloads, ±0 and ±Inf among floats —
// and a page one byte short must fail like the reference does.
func TestDecodeBlockedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floatBits := []uint64{
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff4000000000000,
		0xffffffffffffffff, 0x7ff0000000000000, 0xfff0000000000000, 0x8000000000000000, 0,
	}
	page := func(tag byte, width, n int, word func(i int) uint64) []byte {
		p := make([]byte, vectorHeaderSize+width*n)
		p[0] = tag
		binary.LittleEndian.PutUint32(p[1:], uint32(n))
		for i := 0; i < n; i++ {
			b := p[vectorHeaderSize+width*i:]
			if width == 4 {
				binary.LittleEndian.PutUint32(b, uint32(word(i)))
			} else {
				binary.LittleEndian.PutUint64(b, word(i))
			}
		}
		return p
	}
	kinds := []struct {
		name  string
		build func(n int) []byte
	}{
		{"int32", func(n int) []byte {
			edge := []int32{math.MinInt32, math.MaxInt32, -1, 0, 1}
			return page(tagInt32, 4, n, func(i int) uint64 {
				if i%5 == 0 {
					return uint64(uint32(edge[i/5%len(edge)]))
				}
				return uint64(rng.Uint32())
			})
		}},
		{"int64", func(n int) []byte {
			return page(byte(schema.Int64), 8, n, func(int) uint64 { return rng.Uint64() })
		}},
		{"float64", func(n int) []byte {
			return page(byte(schema.Float64), 8, n, func(i int) uint64 {
				if i%3 == 0 {
					return floatBits[i/3%len(floatBits)]
				}
				return rng.Uint64()
			})
		}},
	}
	var rows []int
	for n := 0; n <= 33; n++ {
		rows = append(rows, n)
	}
	rows = append(rows, 8191, 8192, 8193)
	for _, k := range kinds {
		for _, n := range rows {
			p := k.build(n)
			for off := 0; off < 8; off++ {
				buf := make([]byte, off+len(p))
				copy(buf[off:], p)
				t.Run(fmt.Sprintf("%s/%d/off%d", k.name, n, off), func(t *testing.T) {
					checkAgainstRef(t, buf[off:])
					if n > 0 {
						checkAgainstRef(t, buf[off:len(buf)-1])
					}
				})
			}
		}
	}
}

// BenchmarkDecodeVector is the decode loop of a warm page read: one
// 8,192-row page into a pooled vector that is handed back — int32-narrow
// (every int column of the paper's workload, decoded at 4 bytes a value),
// int64-wide and float64 — and int32-widened, the narrow decode followed by
// the Widen a consumer without a narrow path pays. Bytes are 8 per row for
// every kind, so MB/s compare as values per second.
func BenchmarkDecodeVector(b *testing.B) {
	kinds := pageKinds(8192)
	for _, c := range []struct {
		name, kind string
		widen      bool
	}{
		{"int32-narrow", "int32-narrow", false}, {"int32-widened", "int32-narrow", true},
		{"int64-wide", "int64", false}, {"float64", "float64", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := EncodeVector(kinds[c.kind])
			b.SetBytes(8 * 8192)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := DecodeVector(p)
				if err != nil {
					b.Fatal(err)
				}
				if c.widen {
					_, w := Widen(v)
					PutVector(w)
				}
				benchVec = v
				PutVector(v)
			}
		})
	}
}
