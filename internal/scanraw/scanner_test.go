package scanraw

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	storepkg "scanraw/internal/store"
	"scanraw/internal/tok"
)

// shortDisk serves one file and returns short reads: each ReadAt delivers
// between 1 and most bytes of what was asked (everything when most is 0),
// and nothing past the end. Only ReadAt is implemented — it is all the
// scanner calls.
type shortDisk struct {
	storepkg.Disk
	data []byte
	most int
	rng  *rand.Rand
}

func (d *shortDisk) ReadAt(_ string, p []byte, off int64) (int, error) {
	if off >= int64(len(d.data)) {
		return 0, nil
	}
	n := min(len(p), len(d.data)-int(off))
	if d.most > 0 && n > 1 {
		n = 1 + d.rng.Intn(min(n, d.most))
	}
	return copy(p[:n], d.data[off:]), nil
}

// scannerOver returns a scanner over data behind a disk whose reads are cut
// to at most `most` bytes.
func scannerOver(data []byte, most int, seed int64) *rawScanner {
	d := &shortDisk{data: data, most: most, rng: rand.New(rand.NewSource(seed))}
	return newRawScanner(&Operator{disk: d, textFree: make(chan []byte, 2)}, "f")
}

// checkNext drains the scanner with next and holds it to tok.SplitChunks:
// the same chunks, byte for byte, then end of file.
func checkNext(t *testing.T, data []byte, maxLines, most int, seed int64) {
	t.Helper()
	want, err := tok.SplitChunks(data, maxLines)
	if err != nil {
		t.Fatal(err)
	}
	sc := scannerOver(data, most, seed)
	defer sc.release()
	for i, w := range want {
		got, lines, err := sc.next(maxLines)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if lines != w.Lines || !bytes.Equal(got, w.Data) {
			t.Fatalf("chunk %d of %d (maxLines %d, reads ≤ %d): %d lines, %d bytes; want %d lines, %d bytes",
				i, len(want), maxLines, most, lines, len(got), w.Lines, len(w.Data))
		}
		sc.op.putText(got)
	}
	if got, lines, err := sc.next(maxLines); err != nil || lines != 0 || got != nil {
		t.Fatalf("after the last chunk: %d bytes, %d lines, err %v; want end of file", len(got), lines, err)
	}
}

// checkMixed runs a seeded mix of next, seek and readExtent — offsets inside,
// behind and beyond the read-ahead and the file — against a model that knows
// only the file's bytes and the scanner's logical position.
func checkMixed(t *testing.T, data []byte, maxLines, most int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := scannerOver(data, most, seed)
	defer sc.release()
	size := int64(len(data))
	pos := int64(0)
	offset := func() int64 {
		switch rng.Intn(4) {
		case 0: // inside the read-ahead (or at its edge)
			return sc.pos + rng.Int63n(int64(len(sc.pending()))+1)
		case 1: // behind it
			return rng.Int63n(sc.pos + 1)
		default: // anywhere, a little past the end included
			return rng.Int63n(size + 8)
		}
	}
	for step := 0; step < 48; step++ {
		switch rng.Intn(3) {
		case 0:
			pos = offset()
			sc.seek(pos)
		case 1:
			got, lines, err := sc.next(maxLines)
			if err != nil {
				t.Fatalf("step %d: next at %d: %v", step, pos, err)
			}
			if pos >= size {
				if lines != 0 {
					t.Fatalf("step %d: next at %d past the end returned %d lines", step, pos, lines)
				}
				continue
			}
			want, _ := tok.SplitChunks(data[pos:], maxLines)
			if lines != want[0].Lines || !bytes.Equal(got, want[0].Data) {
				t.Fatalf("step %d: next at %d: %d lines %q, want %d lines %q", step, pos, lines, got, want[0].Lines, want[0].Data)
			}
			pos += int64(len(got))
			sc.op.putText(got)
		case 2:
			off, n := offset(), 1+rng.Int63n(size+4)
			got, err := sc.readExtent(off, n)
			pos = off
			if off+n > size {
				if err == nil || !strings.Contains(err.Error(), "truncated") {
					t.Fatalf("step %d: extent [%d,%d) of a %d-byte file: err %v, want truncation", step, off, off+n, size, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: extent [%d,%d): %v", step, off, off+n, err)
			}
			if !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("step %d: extent [%d,%d) returned %q, want %q", step, off, off+n, got, data[off:off+n])
			}
			pos += n
			sc.op.putText(got)
		}
	}
}

// randomFile builds a seeded file of n lines with empty lines mixed in,
// optionally one line of longLine bytes, with or without a final newline.
func randomFile(rng *rand.Rand, n, longLine int, trailingNewline bool) []byte {
	var b bytes.Buffer
	long := -1
	if longLine > 0 {
		long = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		switch {
		case i == long:
			b.Write(bytes.Repeat([]byte{'x'}, longLine))
		case rng.Intn(5) == 0: // an empty line
		default:
			b.WriteString(strings.Repeat("7,", rng.Intn(40)) + "1")
		}
		b.WriteByte('\n')
	}
	if !trailingNewline && b.Len() > 0 {
		b.Truncate(b.Len() - 1)
	}
	return b.Bytes()
}

func TestRawScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	files := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one newline", []byte("\n")},
		{"one line, no newline", []byte("1,2,3")},
		{"empty lines", []byte("\n\n1,2\n\n\n3,4\n\n")},
		{"shorter than a block", randomFile(rng, 200, 0, true)},
		{"no trailing newline", randomFile(rng, 333, 0, false)},
		{"several blocks", randomFile(rng, 3*readBlockBytes/40, 0, true)},
		{"a line longer than a block", randomFile(rng, 50, readBlockBytes+readBlockBytes/2, true)},
		{"a long last line, no newline", append(randomFile(rng, 20, 0, true), bytes.Repeat([]byte{'y'}, readBlockBytes+17)...)},
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			for _, maxLines := range []int{1, 7, 100, 1 << 13} {
				for _, most := range []int{0, 4093} {
					checkNext(t, f.data, maxLines, most, int64(maxLines))
					if len(f.data) > 0 {
						checkMixed(t, f.data, maxLines, most, int64(maxLines+most))
					}
				}
			}
		})
	}
}

// FuzzRawScanner is the same two properties over arbitrary bytes, with reads
// cut to a few bytes so the chunk boundary, the newline count's block edge
// and the end of file meet in every arrangement.
func FuzzRawScanner(f *testing.F) {
	f.Add([]byte("1,2\n3,4\n5,6\n"), uint8(2), uint8(3), int64(1))
	f.Add([]byte("no newline"), uint8(1), uint8(0), int64(2))
	f.Add([]byte("\n\n\n"), uint8(2), uint8(1), int64(3))
	f.Add([]byte("a\n\nb\nc"), uint8(3), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, maxLines, most uint8, seed int64) {
		lines := int(maxLines)%16 + 1
		checkNext(t, data, lines, int(most), seed)
		if len(data) > 0 {
			checkMixed(t, data, lines, int(most), seed)
		}
	})
}

// The READ side of a scan allocates nothing per chunk once the operator's
// free list holds a scan's worth of buffers: after one cold pass, reading
// every chunk again by its extent — what the next cold query does — costs at
// most the TextChunk header the driver wraps it in. Both carve regimes: chunks
// longer than a read block (the buffer leaves with the chunk) and many chunks
// to a block (the chunk is copied out).
func TestColdScanReadAllocs(t *testing.T) {
	for _, c := range []struct {
		name             string
		rows, chunkLines int
	}{
		{"chunk longer than a block", 6 << 13, 1 << 13},
		{"many chunks to a block", 1 << 13, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, c.rows, 16, nil)
			op := New(env.store, env.table, Config{Workers: 2, ChunkLines: c.chunkLines})
			if got, _ := sumViaOperator(t, op, env); got != wantSum(env) {
				t.Fatalf("cold pass: sum %d, want %d", got, wantSum(env))
			}
			metas := make([]*dbstore.ChunkMeta, env.table.NumChunks()) // Table.Chunk clones: not READ's cost
			for id := range metas {
				metas[id], _ = env.table.Chunk(id)
			}
			var sink *chunk.TextChunk
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sc := newRawScanner(op, env.table.RawFile())
			for id, meta := range metas {
				data, err := sc.readExtent(meta.RawOff, meta.RawLen)
				if err != nil {
					t.Fatal(err)
				}
				sink = &chunk.TextChunk{ID: id, Data: data, Lines: meta.Rows}
				op.putText(sink.Data)
			}
			sc.release()
			runtime.ReadMemStats(&after)
			objects := float64(after.Mallocs-before.Mallocs) / float64(len(metas))
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(metas))
			if objects > 1.25 || bytes >= 4096 { // the header, and one scanner
				t.Errorf("%.2f objects and %.0f bytes allocated per chunk, want at most 1 and under 4 KiB", objects, bytes)
			}
		})
	}
}
