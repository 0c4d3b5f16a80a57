package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// Framing: every manifest record on disk and every /exec message on the
// network is
//
//	uint32 LE  payload length
//	uint32 LE  CRC32-C of the payload
//	payload
//
// The checksum localizes damage: a torn or bit-flipped frame invalidates
// itself and, in a log, everything after it, never anything before it.
// What a reader does then is its own policy: manifest replay truncates the
// torn tail, the exec stream fails the shard.

// FrameHeaderLen is the size of the length + checksum header.
const FrameHeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-C of every frame, page seal and file fingerprint.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// SealFrame fills in the header of frame — FrameHeaderLen reserved bytes,
// then the payload — so an encoder that left the room emits both in one
// write without copying the payload.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], Checksum(payload))
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderLen)...)
	dst = append(dst, payload...)
	SealFrame(dst[start:])
	return dst
}

// ParseFrameHeader splits a header into the payload length and the
// checksum the payload must have. The length is raw: the reader bounds it
// against its own maximum and what it can actually read.
func ParseFrameHeader(hdr []byte) (n int, sum uint32) {
	return int(binary.LittleEndian.Uint32(hdr[0:])), binary.LittleEndian.Uint32(hdr[4:])
}
