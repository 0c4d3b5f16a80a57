package tok

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/testutil"
)

func mkChunk(text string) *chunk.TextChunk {
	return &chunk.TextChunk{ID: 0, Data: []byte(text), Lines: testutil.CountLines([]byte(text))}
}

func fieldText(c *chunk.TextChunk, m *chunk.PositionalMap, r, col int) string {
	s, e := m.Field(r, col)
	return string(c.Data[s:e])
}

func TestTokenizeBasic(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 3}
	c := mkChunk("1,22,333\n4444,5,66\n")
	m, err := tk.Tokenize(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 2 || m.NumCols != 3 {
		t.Fatalf("map dims = %dx%d", m.NumRows, m.NumCols)
	}
	want := [][]string{{"1", "22", "333"}, {"4444", "5", "66"}}
	for r := range want {
		for col := range want[r] {
			if got := fieldText(c, m, r, col); got != want[r][col] {
				t.Errorf("field(%d,%d) = %q, want %q", r, col, got, want[r][col])
			}
		}
	}
}

func TestTokenizeNoTrailingNewline(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 2}
	c := mkChunk("1,2\n3,4")
	m, err := tk.Tokenize(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldText(c, m, 1, 1); got != "4" {
		t.Errorf("last field = %q, want 4", got)
	}
}

func TestTokenizeSelectiveStopsEarly(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 4}
	c := mkChunk("a,b,c,d\ne,f,g,h\n")
	m, err := tk.Tokenize(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCols != 2 {
		t.Fatalf("NumCols = %d", m.NumCols)
	}
	if got := fieldText(c, m, 0, 1); got != "b" {
		t.Errorf("field(0,1) = %q", got)
	}
	// LineEnd must still reach the true end of each line.
	if m.LineEnd[0] != 7 {
		t.Errorf("LineEnd[0] = %d, want 7", m.LineEnd[0])
	}
}

func TestTokenizeEmptyFields(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 3}
	c := mkChunk(",,\n,x,\n")
	m, err := tk.Tokenize(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldText(c, m, 0, 0); got != "" {
		t.Errorf("empty field = %q", got)
	}
	if got := fieldText(c, m, 1, 1); got != "x" {
		t.Errorf("field(1,1) = %q", got)
	}
}

func TestTokenizeExtraFieldsTolerated(t *testing.T) {
	// SAM-style: lines may carry more fields than the mandatory schema.
	tk := &Tokenizer{Delim: '\t', MinFields: 3}
	c := mkChunk("a\tb\tc\textra1\textra2\n")
	m, err := tk.Tokenize(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldText(c, m, 0, 2); got != "c" {
		t.Errorf("field(0,2) = %q, want c (must stop at requested field)", got)
	}
}

func TestTokenizeCRLF(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 2}
	c := mkChunk("1,2\r\n3,4\r\n")
	m, err := tk.Tokenize(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldText(c, m, 0, 1); got != "2" {
		t.Errorf("CRLF last field = %q, want 2 (no \\r)", got)
	}
	if got := fieldText(c, m, 1, 0); got != "3" {
		t.Errorf("second row first field = %q", got)
	}
	// Mixed endings.
	c2 := mkChunk("a,b\nc,d\r\n")
	m2, err := tk.Tokenize(c2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fieldText(c2, m2, 1, 1); got != "d" {
		t.Errorf("mixed-ending field = %q", got)
	}
}

func TestTokenizeMalformed(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 3}
	c := mkChunk("1,2,3\n4,5\n")
	if _, err := tk.Tokenize(c, 3); err == nil {
		t.Error("row with too few fields should fail")
	}
	// Chunk claiming more lines than exist.
	c2 := &chunk.TextChunk{Data: []byte("1,2,3\n"), Lines: 2}
	if _, err := tk.Tokenize(c2, 3); err == nil {
		t.Error("line-count mismatch should fail")
	}
}

func TestTokenizeUpToValidation(t *testing.T) {
	tk := &Tokenizer{Delim: ',', MinFields: 3}
	c := mkChunk("1,2,3\n")
	if _, err := tk.Tokenize(c, 0); err == nil {
		t.Error("upTo=0 should fail")
	}
	if _, err := tk.Tokenize(c, 4); err == nil {
		t.Error("upTo beyond MinFields should fail")
	}
}

func TestSplitChunks(t *testing.T) {
	data := []byte("1\n2\n3\n4\n5\n")
	chunks, err := SplitChunks(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if chunks[0].Lines != 2 || chunks[2].Lines != 1 {
		t.Errorf("line counts: %d,%d,%d", chunks[0].Lines, chunks[1].Lines, chunks[2].Lines)
	}
	var rejoined []byte
	for i, c := range chunks {
		if c.ID != i {
			t.Errorf("chunk %d has ID %d", i, c.ID)
		}
		rejoined = append(rejoined, c.Data...)
	}
	if !bytes.Equal(rejoined, data) {
		t.Errorf("chunks do not rejoin to original: %q", rejoined)
	}
	if _, err := SplitChunks(data, 0); err == nil {
		t.Error("linesPerChunk=0 should fail")
	}
}

func TestSplitChunksEmpty(t *testing.T) {
	chunks, err := SplitChunks(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Errorf("empty data should produce 0 chunks, got %d", len(chunks))
	}
}

// Property: tokenizing a generated CSV recovers exactly the original
// fields, for arbitrary field contents (no delimiter/newline inside).
func TestTokenizeRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		s = strings.ReplaceAll(s, ",", ";")
		s = strings.ReplaceAll(s, "\n", " ")
		return s
	}
	f := func(seed int64, rows, cols uint8) bool {
		nr := int(rows%20) + 1
		nc := int(cols%8) + 1
		rng := rand.New(rand.NewSource(seed))
		want := make([][]string, nr)
		var b strings.Builder
		for r := 0; r < nr; r++ {
			want[r] = make([]string, nc)
			for c := 0; c < nc; c++ {
				want[r][c] = sanitize(fmt.Sprintf("v%d", rng.Intn(1000)))
				if c > 0 {
					b.WriteByte(',')
				}
				b.WriteString(want[r][c])
			}
			b.WriteByte('\n')
		}
		ch := mkChunk(b.String())
		tk := &Tokenizer{Delim: ',', MinFields: nc}
		m, err := tk.Tokenize(ch, nc)
		if err != nil {
			return false
		}
		for r := 0; r < nr; r++ {
			for c := 0; c < nc; c++ {
				if fieldText(ch, m, r, c) != want[r][c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SplitChunks always rejoins to the original bytes and line
// counts sum to CountLines.
func TestSplitChunksProperty(t *testing.T) {
	f := func(lines []uint16, per uint8) bool {
		p := int(per%7) + 1
		var data []byte
		for _, l := range lines {
			data = append(data, []byte(fmt.Sprintf("%d\n", l))...)
		}
		chunks, err := SplitChunks(data, p)
		if err != nil {
			return false
		}
		var rejoined []byte
		total := 0
		for _, c := range chunks {
			rejoined = append(rejoined, c.Data...)
			total += c.Lines
			if c.Lines > p {
				return false
			}
		}
		return bytes.Equal(rejoined, data) && total == testutil.CountLines(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
