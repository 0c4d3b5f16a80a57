package scanraw

import (
	"bytes"
	"fmt"
	"time"
)

// rawScanner is the READ thread's view of the raw file: block-granular,
// arbiter-serialized disk reads with line-oriented chunk carving for
// discovery scans and extent reads for chunks whose geometry the catalog
// already knows.
type rawScanner struct {
	op   *Operator
	name string

	pos     int64  // logical offset of pending[0]
	pending []byte // read-ahead not yet consumed
	diskOff int64  // next disk offset to fetch
	eof     bool
}

func newRawScanner(o *Operator, name string) *rawScanner {
	return &rawScanner{op: o, name: name}
}

// seek positions the scanner at logical offset off, keeping read-ahead
// when possible.
func (s *rawScanner) seek(off int64) {
	if off >= s.pos && off <= s.pos+int64(len(s.pending)) {
		s.pending = s.pending[off-s.pos:]
		s.pos = off
		return
	}
	s.pending = nil
	s.pos = off
	s.diskOff = off
	s.eof = false
}

// fill reads up to size more bytes from the disk into the read-ahead buffer.
func (s *rawScanner) fill(size int) error {
	if s.eof {
		return nil
	}
	block := make([]byte, size)
	s.op.arbiter.Lock()
	start := time.Now()
	n, err := s.op.disk.ReadAt(s.name, block, s.diskOff)
	s.op.prof.readNs.Add(int64(time.Since(start)))
	s.op.arbiter.Unlock()
	if err != nil {
		return fmt.Errorf("scanraw: reading %s at %d: %w", s.name, s.diskOff, err)
	}
	if n == 0 {
		s.eof = true
		return nil
	}
	s.pending = append(s.pending, block[:n]...)
	s.diskOff += int64(n)
	return nil
}

// next carves the next chunk of at most maxLines lines from the stream,
// returning its bytes (including trailing newlines) and line count. A zero
// line count signals end of file.
func (s *rawScanner) next(maxLines int) ([]byte, int, error) {
	lines := 0
	cut := 0 // bytes of pending covered by complete lines so far
	for {
		// Scan newly available bytes for newlines.
		for lines < maxLines {
			i := bytes.IndexByte(s.pending[cut:], '\n')
			if i < 0 {
				break
			}
			cut += i + 1
			lines++
		}
		if lines == maxLines {
			break
		}
		wasEOF := s.eof
		if err := s.fill(readBlockBytes); err != nil {
			return nil, 0, err
		}
		if wasEOF && s.eof {
			// No more data: a trailing fragment without '\n' is a line.
			if cut < len(s.pending) {
				cut = len(s.pending)
				lines++
			}
			break
		}
	}
	if lines == 0 {
		return nil, 0, nil
	}
	data := append([]byte(nil), s.pending[:cut]...)
	s.pending = s.pending[cut:]
	s.pos += int64(cut)
	return data, lines, nil
}

// readExtent reads exactly n bytes starting at logical offset off — the
// extent of a chunk whose geometry the catalog knows, so the disk is asked
// for what is missing of it and no more: a sampled visit pays for its chunk,
// not for a read-ahead block of its neighbours.
func (s *rawScanner) readExtent(off, n int64) ([]byte, error) {
	s.seek(off)
	for int64(len(s.pending)) < n {
		wasEOF := s.eof
		if err := s.fill(int(n) - len(s.pending)); err != nil {
			return nil, err
		}
		if wasEOF && s.eof {
			return nil, fmt.Errorf("scanraw: %s truncated: chunk extent [%d,%d) past end of file",
				s.name, off, off+n)
		}
	}
	data := append([]byte(nil), s.pending[:n]...)
	s.pending = s.pending[n:]
	s.pos += n
	return data, nil
}
