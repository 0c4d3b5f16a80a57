package store

import "scanraw/internal/wire"

// Fingerprint identifies a raw file's contents at staging time: size,
// content checksum, and modification time. Persisted chunks are only valid
// against the exact raw bytes they were converted from — offsets, row
// counts, and statistics all describe byte extents of that file — so a
// restart compares the current file's fingerprint against the recorded one
// and invalidates everything persisted for a file that changed.
type Fingerprint struct {
	// Size is the file length in bytes.
	Size int64
	// CRC is the Castagnoli checksum of the full contents.
	CRC uint32
	// ModTimeNs is the file's modification time (UnixNano) when staged.
	// It is advisory — content equality is what validates persisted chunks,
	// so a touched-but-identical file does not invalidate anything.
	ModTimeNs int64
}

// IsZero reports whether the fingerprint was never computed.
func (f Fingerprint) IsZero() bool { return f.Size == 0 && f.CRC == 0 && f.ModTimeNs == 0 }

// SameContent reports whether two fingerprints describe identical bytes.
// Modification time is deliberately excluded: a copied or re-downloaded
// file with the same contents keeps its persisted chunks.
func (f Fingerprint) SameContent(o Fingerprint) bool {
	return f.Size == o.Size && f.CRC == o.CRC
}

// FingerprintBytes computes the content fingerprint of raw file bytes.
// ModTimeNs is left zero; callers with a backing file can fill it in from
// os.Stat for observability.
func FingerprintBytes(p []byte) Fingerprint {
	return Fingerprint{Size: int64(len(p)), CRC: wire.Checksum(p)}
}
