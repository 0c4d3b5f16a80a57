// Package store is the durable storage subsystem: the Disk abstraction both
// the simulated disk (internal/vdisk) and the crash-safe file-backed disk
// implement, the append-only manifest log that makes catalog state survive
// process death, and the raw-file fingerprinting that detects a source file
// changing underneath persisted chunks.
//
// The paper's payoff is that speculative loading amortizes conversion cost
// across a *sequence* of queries; that amortization only survives a restart
// if the loaded chunks and the catalog's bookkeeping are durable. The
// subsystem follows the classic write-ahead discipline:
//
//   - Segment blobs (the column-group pages one dbstore chunk write
//     produces, concatenated) land via temp file + fsync + atomic rename, so
//     a crash never leaves a half-written segment under a valid name. Each
//     page carries the Castagnoli CRC framing dbstore seals it with;
//     recovery verifies it.
//   - Catalog mutations (chunk geometry, statistics, the place of each
//     loaded column group in its segment, completion) append CRC-framed
//     records to a manifest log that is fsynced before the mutation is
//     considered durable, and are compacted into an atomically-replaced
//     checkpoint snapshot periodically.
//   - Recovery replays checkpoint + log, truncates a torn log tail at the
//     first damaged record, and rebuilds the catalog; a damaged or missing
//     page invalidates its column group, which simply re-converts from raw.
package store

import (
	"scanraw/internal/vdisk"
)

// Disk is the storage device abstraction the database runs on. The
// simulated disk (*vdisk.Disk, with its deterministic bandwidth model) and
// the durable file-backed disk (*FileDisk) both implement it; the
// bandwidth-throttling layer is a wrapper (vdisk.NewBacked) so a durable
// disk can still carry the experiments' deterministic performance model.
//
// Blob semantics, shared by all implementations:
//
//   - ReadAt returns a short read with a nil error at end of blob (there is
//     no io.EOF convention; short read IS the end-of-blob signal).
//   - Preload installs a blob without throttling or transfer accounting —
//     experiment and staging setup must not consume the bandwidth budget
//     being measured.
//   - WriteBlob replaces a blob's contents atomically: a reader never
//     observes a half-replaced blob, and on the durable implementation a
//     crash leaves either the old or the new contents.
type Disk interface {
	// Delete removes a blob; deleting a missing blob is a no-op.
	Delete(name string)
	// Exists reports whether the named blob exists.
	Exists(name string) bool
	// Size returns the length of the named blob.
	Size(name string) (int64, error)
	// List returns the names of all blobs with the given prefix, sorted.
	List(prefix string) []string
	// Preload installs a blob without throttling or accounting.
	Preload(name string, p []byte)
	// WriteBlob atomically replaces the named blob's contents.
	WriteBlob(name string, p []byte) error
	// ReadAt reads len(p) bytes from the blob starting at off; fewer bytes
	// with a nil error means the blob ended.
	ReadAt(name string, p []byte, off int64) (int, error)
	// ReadBlob reads the entire named blob.
	ReadBlob(name string) ([]byte, error)
	// Stats returns cumulative transfer statistics.
	Stats() vdisk.Stats
}

// The simulated disk is a Disk.
var _ Disk = (*vdisk.Disk)(nil)
