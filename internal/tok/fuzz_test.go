package tok

import "testing"

// FuzzTokenize feeds arbitrary bytes through SplitChunks + Tokenize. The
// invariants: no panics, every reported field window lies inside the
// chunk, and field windows are non-overlapping and ordered.
func FuzzTokenize(f *testing.F) {
	f.Add([]byte("a,b,c\nd,e,f\n"), 3)
	f.Add([]byte(",,\n"), 3)
	f.Add([]byte("1,2\r\n3,4\r\n"), 2)
	f.Add([]byte("no newline at end"), 1)
	f.Add([]byte("\n\n\n"), 1)
	f.Add([]byte{0, ',', 0, '\n'}, 2)
	f.Fuzz(func(t *testing.T, data []byte, nf int) {
		nf = nf%8 + 1
		chunks, err := SplitChunks(data, 4)
		if err != nil {
			t.Fatalf("SplitChunks: %v", err)
		}
		tk := &Tokenizer{Delim: ',', MinFields: nf}
		for _, c := range chunks {
			m, err := tk.Tokenize(c, nf)
			if err != nil {
				continue // malformed rows are expected for random input
			}
			if m.NumRows != c.Lines || m.NumCols != nf {
				t.Fatalf("map dims %dx%d for chunk %d lines, %d fields",
					m.NumRows, m.NumCols, c.Lines, nf)
			}
			for r := 0; r < m.NumRows; r++ {
				var prevEnd int32
				for col := 0; col < nf; col++ {
					s, e := m.Field(r, col)
					if s < 0 || e < s || int(e) > len(c.Data) {
						t.Fatalf("field (%d,%d) window [%d,%d) outside chunk of %d bytes",
							r, col, s, e, len(c.Data))
					}
					if col > 0 && s < prevEnd {
						t.Fatalf("field (%d,%d) starts before previous field ends", r, col)
					}
					prevEnd = e
				}
			}
		}
	})
}
