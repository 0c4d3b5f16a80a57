package sam

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"scanraw/internal/vdisk"
)

// BAM-like container format ("BAMX"). Real BAM is a series of BGZF
// (gzip-framed) blocks of binary-encoded alignment records; this format
// keeps exactly the properties the evaluation depends on — block
// compression that must be decompressed before any record is visible, and
// binary record encoding whose extraction cost lives in MAP rather than
// TOKENIZE/PARSE — while staying within the standard library (flate).
//
// Layout:
//
//	magic "BAMX" (4 bytes)
//	block*:
//	  uint32 LE compressedLen
//	  uint32 LE rawLen
//	  uint32 LE recordCount
//	  compressedLen bytes of DEFLATE data, inflating to rawLen bytes of
//	  records
//
// Record encoding: strings are uint16-length-prefixed; integers are
// varint-free fixed 64-bit LE, matching the paper's observation that BAM's
// cost is decompression + sequential decode, not number parsing.

var bamMagic = []byte("BAMX")

const bamBlockHeaderSize = 12

// Bounds on what a block header may claim, checked before anything is sized
// from it. Deflate expands by at most 1032:1 (a 258-byte match costs two
// bits), and a record is at least its six string lengths and five integers.
const (
	maxInflateRatio = 1032
	minRecordSize   = 6*2 + 5*8
)

func appendString(dst []byte, s string) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

func appendInt(dst []byte, x int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	return append(dst, b[:]...)
}

func encodeRead(dst []byte, r Read) []byte {
	dst = appendString(dst, r.QName)
	dst = appendInt(dst, r.Flag)
	dst = appendString(dst, r.RName)
	dst = appendInt(dst, r.Pos)
	dst = appendInt(dst, r.MapQ)
	dst = appendString(dst, r.Cigar)
	dst = appendString(dst, r.RNext)
	dst = appendInt(dst, r.PNext)
	dst = appendInt(dst, r.TLen)
	dst = appendString(dst, r.Seq)
	dst = appendString(dst, r.Qual)
	return dst
}

type recordDecoder struct {
	data []byte
	off  int
}

func (d *recordDecoder) string() (string, error) {
	if d.off+2 > len(d.data) {
		return "", fmt.Errorf("sam: truncated string length at offset %d", d.off)
	}
	n := int(binary.LittleEndian.Uint16(d.data[d.off:]))
	d.off += 2
	if d.off+n > len(d.data) {
		return "", fmt.Errorf("sam: truncated string body at offset %d", d.off)
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *recordDecoder) int() (int64, error) {
	if d.off+8 > len(d.data) {
		return 0, fmt.Errorf("sam: truncated integer at offset %d", d.off)
	}
	x := int64(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return x, nil
}

func (d *recordDecoder) read() (Read, error) {
	var r Read
	var err error
	if r.QName, err = d.string(); err != nil {
		return r, err
	}
	if r.Flag, err = d.int(); err != nil {
		return r, err
	}
	if r.RName, err = d.string(); err != nil {
		return r, err
	}
	if r.Pos, err = d.int(); err != nil {
		return r, err
	}
	if r.MapQ, err = d.int(); err != nil {
		return r, err
	}
	if r.Cigar, err = d.string(); err != nil {
		return r, err
	}
	if r.RNext, err = d.string(); err != nil {
		return r, err
	}
	if r.PNext, err = d.int(); err != nil {
		return r, err
	}
	if r.TLen, err = d.int(); err != nil {
		return r, err
	}
	if r.Seq, err = d.string(); err != nil {
		return r, err
	}
	if r.Qual, err = d.string(); err != nil {
		return r, err
	}
	return r, nil
}

// BAMBytes materializes spec s as a BAMX file with readsPerBlock records
// per compressed block.
func BAMBytes(s Spec, readsPerBlock int) ([]byte, error) {
	if readsPerBlock <= 0 {
		return nil, fmt.Errorf("sam: readsPerBlock must be positive, got %d", readsPerBlock)
	}
	out := append([]byte(nil), bamMagic...)
	var raw []byte
	for start := 0; start < s.Reads; start += readsPerBlock {
		end := start + readsPerBlock
		if end > s.Reads {
			end = s.Reads
		}
		raw = raw[:0]
		for i := start; i < end; i++ {
			raw = encodeRead(raw, s.ReadAt(i))
		}
		var comp bytes.Buffer
		w, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("sam: flate init: %w", err)
		}
		if _, err := w.Write(raw); err != nil {
			return nil, fmt.Errorf("sam: compressing block: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("sam: closing block: %w", err)
		}
		var hdr [bamBlockHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(comp.Len()))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(raw)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(end-start))
		out = append(out, hdr[:]...)
		out = append(out, comp.Bytes()...)
	}
	return out, nil
}

// PreloadBAM installs the BAMX file on the disk (untimed setup) and returns
// its size.
func PreloadBAM(d *vdisk.Disk, name string, s Spec, readsPerBlock int) (int64, error) {
	data, err := BAMBytes(s, readsPerBlock)
	if err != nil {
		return 0, err
	}
	d.Preload(name, data)
	return int64(len(data)), nil
}

// BAMReader is the BAMTools-equivalent access library: a strictly
// sequential block reader. Each NextBlock call reads one compressed block
// from the disk, inflates it, and decodes its records — all on the calling
// goroutine. This mirrors the paper's finding that "file data access and
// decompression are sequential and handled inside BAMTools; the process is
// heavily CPU-bound", which no amount of downstream parallelism can fix.
type BAMReader struct {
	disk *vdisk.Disk
	name string
	off  int64
	size int64

	lastCPU time.Duration
}

// LastBlockCPU returns the CPU time (decompression + record decoding) the
// most recent NextBlock call spent, excluding disk reads. Benchmarks that
// model CPU speed use it to put the sequential BAM path in the same model
// units as the pipeline.
func (r *BAMReader) LastBlockCPU() time.Duration { return r.lastCPU }

// NewBAMReader opens a BAMX blob and validates its magic.
func NewBAMReader(d *vdisk.Disk, name string) (*BAMReader, error) {
	size, err := d.Size(name)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(bamMagic))
	n, err := d.ReadAt(name, magic, 0)
	if err != nil {
		return nil, err
	}
	if n != len(bamMagic) || !bytes.Equal(magic, bamMagic) {
		return nil, fmt.Errorf("sam: %s is not a BAMX file", name)
	}
	return &BAMReader{disk: d, name: name, off: int64(len(bamMagic)), size: size}, nil
}

// NextBlock reads, inflates and decodes the next block of reads. It
// returns io.EOF when the file is exhausted.
func (r *BAMReader) NextBlock() ([]Read, error) {
	if r.off >= r.size {
		return nil, io.EOF
	}
	hdr := make([]byte, bamBlockHeaderSize)
	n, err := r.disk.ReadAt(r.name, hdr, r.off)
	if err != nil {
		return nil, err
	}
	if n < bamBlockHeaderSize {
		return nil, fmt.Errorf("sam: truncated block header at offset %d", r.off)
	}
	compLen := int64(binary.LittleEndian.Uint32(hdr[0:]))
	rawLen := int(binary.LittleEndian.Uint32(hdr[4:]))
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	if compLen > r.size-r.off-bamBlockHeaderSize {
		return nil, fmt.Errorf("sam: block at offset %d claims %d compressed bytes, %d left in the file", r.off, compLen, r.size-r.off-bamBlockHeaderSize)
	}
	if int64(rawLen) > compLen*maxInflateRatio {
		return nil, fmt.Errorf("sam: block at offset %d claims %d bytes from %d compressed, beyond what deflate can expand", r.off, rawLen, compLen)
	}
	if count > rawLen/minRecordSize {
		return nil, fmt.Errorf("sam: block at offset %d claims %d records in %d bytes", r.off, count, rawLen)
	}
	comp := make([]byte, compLen)
	n, err = r.disk.ReadAt(r.name, comp, r.off+bamBlockHeaderSize)
	if err != nil {
		return nil, err
	}
	if int64(n) < compLen {
		return nil, fmt.Errorf("sam: truncated block body at offset %d", r.off)
	}
	r.off += bamBlockHeaderSize + compLen

	cpuStart := time.Now()
	defer func() { r.lastCPU = time.Since(cpuStart) }()
	raw := make([]byte, 0, rawLen)
	fr := flate.NewReader(bytes.NewReader(comp))
	buf := make([]byte, 32<<10)
	for {
		m, err := fr.Read(buf)
		raw = append(raw, buf[:m]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sam: inflating block: %w", err)
		}
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("sam: closing inflater: %w", err)
	}
	if len(raw) != rawLen {
		return nil, fmt.Errorf("sam: block inflated to %d bytes, header says %d", len(raw), rawLen)
	}
	dec := &recordDecoder{data: raw}
	reads := make([]Read, 0, count)
	for i := 0; i < count; i++ {
		rd, err := dec.read()
		if err != nil {
			return nil, fmt.Errorf("sam: decoding record %d: %w", i, err)
		}
		reads = append(reads, rd)
	}
	if dec.off != len(raw) {
		return nil, fmt.Errorf("sam: %d trailing bytes after %d records", len(raw)-dec.off, count)
	}
	return reads, nil
}
