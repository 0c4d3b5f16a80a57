package scanraw

import (
	"bytes"
	"fmt"
	"time"
)

// Text buffers. A raw byte is written once, by the disk read that lands it
// in the buffer its chunk is converted from: the scanner reads into the spare
// capacity of its read-ahead, hands the front of that buffer out as the
// chunk's TextChunk.Data, and starts the next read-ahead in another buffer
// with only the over-read tail moved across (carve). The buffers cycle through
// a free list the operator keeps across runs.
//
// Ownership rule: a buffer from getText has one owner at a time — the
// scanner, then whoever holds the chunk carved from it (the driver's step,
// the convItem in the text chunks buffer, the conversion task) — and that
// owner hands it to putText exactly once: run.convert the moment the kernel
// returns (Kernel.Convert retains nothing of the text), or whichever path
// drops the chunk unconverted.

// getText returns an empty buffer of capacity at least n.
func (o *Operator) getText(n int) []byte {
	if invariantsOn {
		o.textOut.Add(1)
	}
	select {
	case b := <-o.textFree:
		if cap(b) >= n {
			return b
		}
		// Too small for the chunks of this scan: leave it to the GC, so the
		// list converges on buffers that fit.
	default:
	}
	// Never under a read block, so that the scanner's read-ahead and the
	// chunks of a file with many to a block trade buffers freely; and an
	// eighth over, because the chunks of one file differ by a few bytes and a
	// buffer a few bytes short is a buffer reallocated.
	n = max(n, readBlockBytes)
	b := make([]byte, n+n/8)
	// A large allocation is address space the kernel has not backed yet.
	// Touch it here: left to the disk read, every first-touch page fault of
	// a fresh operator's buffers is taken under the arbiter, where it
	// lengthens — and, on a host short of memory, unsteadies — the chain of
	// reads and writes a cold scan is bound by.
	clear(b)
	return b[:0]
}

// putText gives a buffer back, whatever part of it b still spans. The caller
// must not touch the bytes afterwards; the invariants build overwrites them,
// so a reader that kept a reference sees garbage at once and the differential
// suites fail.
func (o *Operator) putText(b []byte) {
	if cap(b) == 0 {
		return
	}
	if invariantsOn {
		o.textOut.Add(-1)
		for n := copy(b, "\xDB"); n > 0 && n < len(b); n *= 2 {
			copy(b[n:], b[:n]) // doubling: a byte loop is slow under -race
		}
	}
	select {
	case o.textFree <- b[:0]:
	default:
	}
}

// rawScanner is the READ thread's view of the raw file: block-granular,
// arbiter-serialized disk reads with line-oriented chunk carving for
// discovery scans and extent reads for chunks whose geometry the catalog
// already knows.
type rawScanner struct {
	op   *Operator
	name string

	// buf is a getText buffer the scanner owns; buf[head:] is the read-ahead
	// not yet consumed, and pos the logical offset of its first byte.
	buf     []byte
	head    int
	pos     int64
	diskOff int64 // next disk offset to fetch
	eof     bool
}

func newRawScanner(o *Operator, name string) *rawScanner {
	return &rawScanner{op: o, name: name}
}

// release ends the scanner's life: its buffer goes back to the free list.
func (s *rawScanner) release() {
	s.op.putText(s.buf)
	s.buf, s.head = nil, 0
}

func (s *rawScanner) pending() []byte { return s.buf[s.head:] }

// seek positions the scanner at logical offset off, keeping read-ahead
// when possible.
func (s *rawScanner) seek(off int64) {
	if skip := off - s.pos; skip >= 0 && skip <= int64(len(s.pending())) {
		s.head += int(skip)
		s.pos = off
		return
	}
	s.buf, s.head = s.buf[:0], 0
	s.pos = off
	s.diskOff = off
	s.eof = false
}

// fill reads up to size more bytes from the disk into the spare capacity of
// the read-ahead buffer.
func (s *rawScanner) fill(size int) error {
	if s.eof {
		return nil
	}
	if cap(s.buf)-len(s.buf) < size && s.head > 0 {
		// Reclaim the consumed front before asking for a larger buffer.
		s.buf, s.head = s.buf[:copy(s.buf, s.pending())], 0
	}
	have := len(s.buf)
	if cap(s.buf)-have < size {
		// Doubling: only a scan's first chunk, or one much longer than its
		// predecessor, grows its buffer. The outgrown one is too small for
		// this file's chunks, so it is not put back: the next scan would only
		// find it in the list to discard it.
		grown := s.op.getText(max(have+size, 2*cap(s.buf)))
		if invariantsOn && cap(s.buf) > 0 {
			s.op.textOut.Add(-1)
		}
		s.buf = append(grown, s.buf...)
	}
	s.op.arbiter.Lock()
	start := time.Now()
	n, err := s.op.disk.ReadAt(s.name, s.buf[have:have+size], s.diskOff)
	s.op.prof.readNs.Add(int64(time.Since(start)))
	s.op.arbiter.Unlock()
	if err != nil {
		return fmt.Errorf("scanraw: reading %s at %d: %w", s.name, s.diskOff, err)
	}
	if n == 0 {
		s.eof = true
		return nil
	}
	s.buf = s.buf[:have+n]
	s.diskOff += int64(n)
	return nil
}

// carve consumes the first n bytes of the read-ahead and returns them as a
// buffer the caller owns, moving whichever is less: a chunk longer than what
// was read past it leaves with the scanner's buffer, and only that tail moves,
// to the front of a new buffer with room for ahead bytes; a chunk shorter
// than the tail (many chunks to a read block) is copied out, as it is when a
// seek left the read-ahead off its buffer's base — a buffer goes back to the
// free list whole.
func (s *rawScanner) carve(n, ahead int) []byte {
	chunk, tail := s.pending()[:n], s.pending()[n:]
	s.pos += int64(n)
	if s.head > 0 || len(tail) > n {
		s.head += n
		return append(s.op.getText(n), chunk...)
	}
	s.buf = append(s.op.getText(ahead), tail...)
	return chunk
}

// next carves the next chunk of at most maxLines lines from the stream,
// returning its bytes (including trailing newlines) and line count. A zero
// line count signals end of file. The bytes are a getText buffer the caller
// now owns.
func (s *rawScanner) next(maxLines int) ([]byte, int, error) {
	lines := 0
	cut := 0     // bytes of the read-ahead covered by complete lines so far
	scanned := 0 // bytes of the read-ahead searched for newlines so far
	for {
		// Count the newly available lines at once; only the block the chunk
		// boundary falls in is walked line by line.
		pending := s.pending()
		fresh := pending[scanned:]
		if c := bytes.Count(fresh, newline); lines+c > maxLines {
			for ; lines < maxLines; lines++ {
				cut += bytes.IndexByte(pending[cut:], '\n') + 1
			}
		} else if c > 0 {
			lines += c
			cut = scanned + bytes.LastIndexByte(fresh, '\n') + 1
		}
		scanned = len(pending)
		if lines == maxLines {
			break
		}
		wasEOF := s.eof
		if err := s.fill(readBlockBytes); err != nil {
			return nil, 0, err
		}
		if wasEOF && s.eof {
			// No more data: a trailing fragment without '\n' is a line.
			if cut < scanned {
				cut = scanned
				lines++
			}
			break
		}
	}
	if lines == 0 {
		return nil, 0, nil
	}
	// The next chunk is about as long, and ends somewhere in a block.
	return s.carve(cut, cut+readBlockBytes), lines, nil
}

var newline = []byte{'\n'}

// readExtent reads exactly n bytes starting at logical offset off — the
// extent of a chunk whose geometry the catalog knows, so the disk is asked
// for what is missing of it and no more: a sampled visit pays for its chunk,
// not for a read-ahead block of its neighbours. The bytes are a getText
// buffer the caller now owns.
func (s *rawScanner) readExtent(off, n int64) ([]byte, error) {
	s.seek(off)
	for int64(len(s.pending())) < n {
		wasEOF := s.eof
		if err := s.fill(int(n) - len(s.pending())); err != nil {
			return nil, err
		}
		if wasEOF && s.eof {
			return nil, fmt.Errorf("scanraw: %s truncated: chunk extent [%d,%d) past end of file",
				s.name, off, off+n)
		}
	}
	return s.carve(int(n), int(n)), nil // the next extent is about as long, and read exactly
}
