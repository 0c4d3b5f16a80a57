package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scanraw/internal/wire"
)

// Manifest is the append-only catalog mutation log plus its checkpoint
// snapshot. The durability contract:
//
//   - Append encodes the records, writes them in one append, and fsyncs
//     before returning — a successful Append survives power loss.
//   - Checkpoint writes a full snapshot to a temp file, fsyncs, atomically
//     renames it over the previous checkpoint, fsyncs the directory, and
//     only then truncates the log. A crash between those steps leaves
//     checkpoint + stale log; since records are idempotent upserts, the
//     duplicate replay is harmless.
//   - Replay reads checkpoint then log, verifies each record's CRC frame,
//     and truncates the log's torn tail at the first damaged record, so
//     recovery always resumes from a self-consistent prefix.
//
// Both files begin with an 8-byte magic so a foreign file is recognized
// instead of being misparsed.
type Manifest struct {
	dir string

	mu        sync.Mutex
	log       *os.File
	appends   int64 // records appended since the last checkpoint
	appendAll int64 // records appended over the manifest's lifetime
	ckpts     int64
	replay    ReplayReport
	fail      func(op string) error
	syncs     syncMeter
}

const (
	logFileName  = "manifest.log"
	ckptFileName = "checkpoint.dat"
)

var (
	logMagic  = []byte("SCRWLOG1")
	ckptMagic = []byte("SCRWCKP1")
)

// ReplayReport describes what Replay found.
type ReplayReport struct {
	// CheckpointRecords and LogRecords count the valid records read.
	CheckpointRecords int
	LogRecords        int
	// TornBytes is how many bytes were truncated from the log's damaged
	// tail (0 when the log was clean).
	TornBytes int64
	// CheckpointTornBytes counts damaged checkpoint-tail bytes that were
	// ignored. Checkpoints are written atomically, so this is nonzero only
	// after storage-level corruption.
	CheckpointTornBytes int64
}

// ManifestStats is a snapshot of manifest activity.
type ManifestStats struct {
	AppendedRecords        int64
	AppendsSinceCheckpoint int64
	Checkpoints            int64
	LastReplay             ReplayReport
}

// OpenManifest opens (creating if needed) the manifest in dir.
func OpenManifest(dir string) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating manifest dir: %w", err)
	}
	path := filepath.Join(dir, logFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening manifest log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: opening manifest log: %w", err)
	}
	if fi.Size() == 0 {
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: initializing manifest log: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: initializing manifest log: %w", err)
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: initializing manifest log: %w", err)
		}
	}
	return &Manifest{dir: dir, log: f}, nil
}

// Dir returns the directory the manifest lives in.
func (m *Manifest) Dir() string { return m.dir }

// SetFailure installs (or clears, with nil) a fault-injection hook, the
// journal's counterpart of vdisk.Disk.SetFailure: Append ("append") and
// Checkpoint ("checkpoint") consult it before touching a file, and a non-nil
// error aborts the call with nothing written.
func (m *Manifest) SetFailure(f func(op string) error) {
	m.mu.Lock()
	m.fail = f
	m.mu.Unlock()
}

// Append durably appends records to the log. It returns only after the
// records are fsynced to storage.
func (m *Manifest) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range recs {
		buf = wire.AppendFrame(buf, EncodeRecord(r))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return fmt.Errorf("store: manifest is closed")
	}
	if m.fail != nil {
		if err := m.fail("append"); err != nil {
			return err
		}
	}
	// Writes land at the end: the file is only ever extended here and
	// truncated under the same lock.
	if _, err := m.log.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: appending manifest records: %w", err)
	}
	if _, err := m.log.Write(buf); err != nil {
		return fmt.Errorf("store: appending manifest records: %w", err)
	}
	if err := m.syncs.Sync(m.log); err != nil {
		return fmt.Errorf("store: syncing manifest log: %w", err)
	}
	m.appends += int64(len(recs))
	m.appendAll += int64(len(recs))
	return nil
}

// Replay reads the checkpoint (if any) followed by the log, verifying every
// record frame. A damaged log tail is truncated in place so subsequent
// appends continue from the last valid record. The returned records are in
// apply order: checkpoint first, then log.
func (m *Manifest) Replay() ([]Record, ReplayReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil, ReplayReport{}, fmt.Errorf("store: manifest is closed")
	}
	var rep ReplayReport
	var recs []Record

	ckpt, err := os.ReadFile(filepath.Join(m.dir, ckptFileName))
	switch {
	case err == nil:
		body, ok := bytes.CutPrefix(ckpt, ckptMagic)
		if !ok {
			// A checkpoint without its magic is unusable end to end.
			rep.CheckpointTornBytes = int64(len(ckpt))
		} else {
			cr, valid, torn := decodeFrames(body)
			recs = append(recs, cr...)
			rep.CheckpointRecords = len(cr)
			if torn {
				rep.CheckpointTornBytes = int64(len(body) - valid)
			}
		}
	case os.IsNotExist(err):
		// First start: no checkpoint yet.
	default:
		return nil, rep, fmt.Errorf("store: reading checkpoint: %w", err)
	}

	raw, err := os.ReadFile(filepath.Join(m.dir, logFileName))
	if err != nil {
		return nil, rep, fmt.Errorf("store: reading manifest log: %w", err)
	}
	body, ok := bytes.CutPrefix(raw, logMagic)
	validLen := len(logMagic)
	if !ok {
		// The log header itself is damaged: nothing after it can be
		// trusted. Reset to an empty log.
		rep.TornBytes = int64(len(raw))
		validLen = 0
	} else {
		lr, valid, torn := decodeFrames(body)
		recs = append(recs, lr...)
		rep.LogRecords = len(lr)
		validLen += valid
		if torn {
			rep.TornBytes = int64(len(body) - valid)
		}
	}
	if rep.TornBytes > 0 {
		if err := m.log.Truncate(int64(validLen)); err != nil {
			return nil, rep, fmt.Errorf("store: truncating torn manifest tail: %w", err)
		}
		if validLen == 0 {
			if _, err := m.log.WriteAt(logMagic, 0); err != nil {
				return nil, rep, fmt.Errorf("store: rewriting manifest header: %w", err)
			}
		}
		if err := m.syncs.Sync(m.log); err != nil {
			return nil, rep, fmt.Errorf("store: syncing truncated manifest: %w", err)
		}
	}
	m.appends = int64(rep.LogRecords)
	m.replay = rep
	return recs, rep, nil
}

// Checkpoint atomically replaces the checkpoint snapshot with recs and
// truncates the log. The snapshot is durable before the log shrinks, so no
// crash point loses a record.
func (m *Manifest) Checkpoint(recs []Record) error {
	buf := append([]byte(nil), ckptMagic...)
	for _, r := range recs {
		buf = wire.AppendFrame(buf, EncodeRecord(r))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return fmt.Errorf("store: manifest is closed")
	}
	if m.fail != nil {
		if err := m.fail("checkpoint"); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(m.dir, tmpPrefix+ckptFileName+"-")
	if err != nil {
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail(err)
	}
	if err := m.syncs.Sync(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(m.dir, ckptFileName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: installing checkpoint: %w", err)
	}
	if err := m.syncs.syncDir(m.dir); err != nil {
		return fmt.Errorf("store: installing checkpoint: %w", err)
	}
	// The snapshot is durable; the log's records are now redundant.
	if err := m.log.Truncate(int64(len(logMagic))); err != nil {
		return fmt.Errorf("store: truncating manifest log: %w", err)
	}
	if err := m.syncs.Sync(m.log); err != nil {
		return fmt.Errorf("store: truncating manifest log: %w", err)
	}
	m.appends = 0
	m.ckpts++
	return nil
}

// AppendsSinceCheckpoint returns how many records the log holds beyond the
// checkpoint — the compaction trigger.
func (m *Manifest) AppendsSinceCheckpoint() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appends
}

// Syncs returns how many fsyncs the manifest has issued since it was
// opened, and the time spent in them.
func (m *Manifest) Syncs() (int64, time.Duration) { return m.syncs.Syncs() }

// Stats returns a snapshot of manifest activity.
func (m *Manifest) Stats() ManifestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManifestStats{
		AppendedRecords:        m.appendAll,
		AppendsSinceCheckpoint: m.appends,
		Checkpoints:            m.ckpts,
		LastReplay:             m.replay,
	}
}

// Close syncs and closes the log. The manifest is unusable afterwards.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	err := m.log.Sync()
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	m.log = nil
	return err
}
