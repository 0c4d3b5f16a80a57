package sam

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"scanraw/internal/parse"
	"scanraw/internal/testutil"
	"scanraw/internal/tok"
	"scanraw/internal/vdisk"
)

func TestSchemaShape(t *testing.T) {
	sch := Schema()
	if sch.NumColumns() != 11 {
		t.Fatalf("SAM schema has %d columns, want 11", sch.NumColumns())
	}
	if i, ok := sch.Index("cigar"); !ok || i != 5 {
		t.Errorf("cigar ordinal = %d,%v", i, ok)
	}
}

func TestReadAtDeterministic(t *testing.T) {
	s := Spec{Reads: 100, Seed: 7}
	a, b := s.ReadAt(42), s.ReadAt(42)
	if a != b {
		t.Error("ReadAt must be deterministic")
	}
	if a == s.ReadAt(43) {
		t.Error("different reads should differ")
	}
}

func TestReadAtShape(t *testing.T) {
	s := Spec{Reads: 200, Seed: 3}
	for i := 0; i < 200; i++ {
		r := s.ReadAt(i)
		if len(r.Seq) != 50 || len(r.Qual) != 50 {
			t.Fatalf("read %d seq/qual lengths = %d/%d", i, len(r.Seq), len(r.Qual))
		}
		if r.Pos < 0 || r.Pos >= 1_000_000 {
			t.Fatalf("read %d pos = %d", i, r.Pos)
		}
		if r.MapQ < 0 || r.MapQ > 60 {
			t.Fatalf("read %d mapq = %d", i, r.MapQ)
		}
		if !strings.HasPrefix(r.RName, "chr") {
			t.Fatalf("read %d rname = %q", i, r.RName)
		}
		if r.Cigar == "" || strings.Contains(r.Cigar, "%") {
			t.Fatalf("read %d cigar = %q", i, r.Cigar)
		}
		for _, c := range r.Seq {
			if !strings.ContainsRune(bases, c) {
				t.Fatalf("read %d has non-ACGT base %q", i, c)
			}
		}
	}
}

func TestCigarDistributionHasStructure(t *testing.T) {
	s := Spec{Reads: 2000, Seed: 1}
	perfect := 0
	for i := 0; i < s.Reads; i++ {
		if s.ReadAt(i).Cigar == "50M" {
			perfect++
		}
	}
	// 4 of 9 shapes are perfect matches: expect roughly 44%.
	if perfect < s.Reads/4 || perfect > s.Reads*2/3 {
		t.Errorf("perfect-match fraction = %d/%d, want ~44%%", perfect, s.Reads)
	}
}

func TestSAMBytesParsesWithTokenizer(t *testing.T) {
	s := Spec{Reads: 32, Seed: 9, ReadLen: 20}
	data := SAMBytes(s)
	if got := testutil.CountLines(data); got != 32 {
		t.Fatalf("lines = %d", got)
	}
	chunks, err := tok.SplitChunks(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	tk := &tok.Tokenizer{Delim: '\t', MinFields: 11}
	p := &parse.Parser{Schema: Schema()}
	idx := 0
	for _, c := range chunks {
		m, err := tk.Tokenize(c, 11)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := p.Parse(c, m, []int{0, 1, 3, 5, 9})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < bc.Rows; r++ {
			want := s.ReadAt(idx)
			if bc.Column(0).Strs[r] != want.QName ||
				bc.Column(1).Ints[r] != want.Flag ||
				bc.Column(3).Ints[r] != want.Pos ||
				bc.Column(5).Strs[r] != want.Cigar ||
				bc.Column(9).Strs[r] != want.Seq {
				t.Fatalf("read %d does not round-trip through SAM text", idx)
			}
			idx++
		}
	}
	if idx != 32 {
		t.Errorf("parsed %d reads", idx)
	}
}

func TestBAMRoundTrip(t *testing.T) {
	s := Spec{Reads: 37, Seed: 5, ReadLen: 24}
	d := vdisk.Unlimited()
	if _, err := PreloadBAM(d, "f.bam", s, 10); err != nil {
		t.Fatal(err)
	}
	r, err := NewBAMReader(d, "f.bam")
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	blocks := 0
	for {
		reads, err := r.NextBlock()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		for _, got := range reads {
			if got != s.ReadAt(idx) {
				t.Fatalf("read %d mismatch: %+v vs %+v", idx, got, s.ReadAt(idx))
			}
			idx++
		}
	}
	if idx != 37 {
		t.Errorf("decoded %d reads, want 37", idx)
	}
	if blocks != 4 {
		t.Errorf("blocks = %d, want 4 (10+10+10+7)", blocks)
	}
}

func TestBAMSmallerThanSAM(t *testing.T) {
	s := Spec{Reads: 500, Seed: 2}
	samData := SAMBytes(s)
	bamData, err := BAMBytes(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(bamData) >= len(samData) {
		t.Errorf("BAM (%d) should compress below SAM (%d)", len(bamData), len(samData))
	}
}

func TestBAMErrors(t *testing.T) {
	d := vdisk.Unlimited()
	if _, err := BAMBytes(Spec{Reads: 1}, 0); err == nil {
		t.Error("readsPerBlock=0 should fail")
	}
	d.Preload("notbam", []byte("hello world"))
	if _, err := NewBAMReader(d, "notbam"); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewBAMReader(d, "missing"); err == nil {
		t.Error("missing blob should fail")
	}
	// Truncated file.
	good, err := BAMBytes(Spec{Reads: 5, ReadLen: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.Preload("trunc", good[:len(good)-3])
	r, err := NewBAMReader(d, "trunc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextBlock(); err == nil {
		t.Error("truncated block should fail")
	}
}

func TestReadsToChunk(t *testing.T) {
	s := Spec{Reads: 10, Seed: 4, ReadLen: 16}
	reads := make([]Read, 10)
	for i := range reads {
		reads[i] = s.ReadAt(i)
	}
	bc, err := ReadsToChunk(3, reads, []int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if bc.ID != 3 || bc.Rows != 10 {
		t.Fatalf("chunk shape = %d/%d", bc.ID, bc.Rows)
	}
	if bc.Has(0) || !bc.Has(3) || !bc.Has(5) {
		t.Error("wrong columns present")
	}
	if bc.Column(5).Strs[7] != reads[7].Cigar {
		t.Error("cigar column wrong")
	}
	if bc.Column(3).Ints[2] != reads[2].Pos {
		t.Error("pos column wrong")
	}
	if _, err := ReadsToChunk(0, reads, []int{99}); err == nil {
		t.Error("bad ordinal should fail")
	}
}

func TestReadsToChunkAllColumns(t *testing.T) {
	s := Spec{Reads: 3, Seed: 8, ReadLen: 12}
	reads := []Read{s.ReadAt(0), s.ReadAt(1), s.ReadAt(2)}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	bc, err := ReadsToChunk(0, reads, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		if !bc.Has(c) {
			t.Errorf("column %d missing", c)
		}
	}
	if bc.Column(10).Strs[1] != reads[1].Qual {
		t.Error("qual column wrong")
	}
}

// Property: SAM text for any read tokenizes into exactly 11 fields that
// parse back to the original record.
func TestSAMLineRoundTripProperty(t *testing.T) {
	f := func(seed uint16, idx uint8) bool {
		s := Spec{Reads: 256, Seed: uint64(seed), ReadLen: 16}
		r := s.ReadAt(int(idx))
		line := AppendSAM(nil, r)
		fields := bytes.Split(bytes.TrimSuffix(line, []byte("\n")), []byte("\t"))
		if len(fields) != 11 {
			return false
		}
		return string(fields[0]) == r.QName &&
			string(fields[5]) == r.Cigar &&
			string(fields[9]) == r.Seq &&
			string(fields[10]) == r.Qual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: BAM encode/decode round-trips arbitrary record field values.
func TestBAMRecordRoundTripProperty(t *testing.T) {
	f := func(qname, cigar, seq string, flag, pos int64) bool {
		if len(qname) > 65535 || len(cigar) > 65535 || len(seq) > 65535 {
			return true
		}
		r := Read{QName: qname, Flag: flag, RName: "chr1", Pos: pos,
			Cigar: cigar, RNext: "=", Seq: seq, Qual: seq}
		enc := encodeRead(nil, r)
		dec := &recordDecoder{data: enc}
		got, err := dec.read()
		return err == nil && got == r && dec.off == len(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
