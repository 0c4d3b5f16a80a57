package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/vdisk"
)

// tmpPrefix marks in-flight atomic writes. Listing and existence checks
// ignore these names, and blob names may not use the prefix, so a crash
// mid-write can only ever leave invisible garbage, never a damaged blob.
const tmpPrefix = ".tmp-"

// FileDisk is the durable Disk implementation: every blob is a regular
// file under a root directory, blob names map to relative paths, and
// WriteBlob follows the temp-file + fsync + atomic-rename discipline so a
// crash at any instant leaves each blob either absent, fully old, or fully
// new. It implements both store.Disk and vdisk.Backend, so it can be used
// bare (real hardware speed) or wrapped in a bandwidth-throttled simulated
// disk via vdisk.NewBacked.
type FileDisk struct {
	root string

	// dirMu serializes directory-shape changes (create/rename/delete) so
	// concurrent writers cannot race a MkdirAll against a Delete.
	dirMu sync.Mutex

	// handles are the kept read handles, by blob name; see acquire.
	handleMu sync.Mutex
	handles  map[string]*readHandle

	syncs syncMeter

	readOps     atomic.Int64
	writeOps    atomic.Int64
	readBytes   atomic.Int64
	writeBytes  atomic.Int64
	readBusyNs  atomic.Int64
	writeBusyNs atomic.Int64
}

var _ Disk = (*FileDisk)(nil)

// The file disk is also a valid backend for the bandwidth-throttling
// simulated disk.
var _ vdisk.Backend = (*FileDisk)(nil)

// OpenFileDisk opens (creating if needed) a file-backed disk rooted at dir.
func OpenFileDisk(dir string) (*FileDisk, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: resolving disk root: %w", err)
	}
	d := &FileDisk{root: abs, handles: make(map[string]*readHandle)}
	if err := d.mkdirAll(abs); err != nil {
		return nil, fmt.Errorf("store: creating disk root: %w", err)
	}
	return d, nil
}

// path validates a blob name and maps it to a filesystem path. Names are
// slash-separated relative paths; empty components, ".", "..", and the
// temp-file prefix are rejected so a name can never escape the root or
// collide with an in-flight write.
func (d *FileDisk) path(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("store: empty blob name")
	}
	for _, part := range strings.Split(name, "/") {
		if part == "" || part == "." || part == ".." || strings.HasPrefix(part, tmpPrefix) {
			return "", fmt.Errorf("store: invalid blob name %q", name)
		}
	}
	return filepath.Join(d.root, filepath.FromSlash(name)), nil
}

// Syncs returns how many fsyncs of files and directories the disk has
// issued, and the time spent in them.
func (d *FileDisk) Syncs() (int64, time.Duration) { return d.syncs.Syncs() }

// mkdirAll creates dir and any missing parents, then fsyncs the parent of
// every directory it created: a new directory's entry is durable only once
// its parent is synced, and a blob in a directory whose entry a crash loses
// is lost with it. The leaf itself is synced by the caller, after the entry
// it adds. Caller holds dirMu (or owns the disk).
func (d *FileDisk) mkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	// top is the shallowest missing directory: everything from it down to
	// dir is created here.
	top := dir
	for parent := filepath.Dir(top); parent != top; parent = filepath.Dir(top) {
		if _, err := os.Stat(parent); err == nil {
			break
		}
		top = parent
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for p := dir; ; p = filepath.Dir(p) {
		if err := d.syncs.syncDir(filepath.Dir(p)); err != nil {
			return err
		}
		if p == top {
			return nil
		}
	}
}

// syncMeter is the one way a FileDisk or a Manifest fsyncs: it counts the
// syncs of files and directories and the time they take — what a durable
// write pays beyond its bytes. hook, when set (tests only), sees every
// synced path.
type syncMeter struct {
	n, ns atomic.Int64
	hook  func(path string)
}

// Sync fsyncs f.
func (m *syncMeter) Sync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	m.count(f.Name(), start)
	return err
}

// syncDir fsyncs a directory.
func (m *syncMeter) syncDir(dir string) error {
	start := time.Now()
	err := syncDir(dir)
	m.count(dir, start)
	return err
}

func (m *syncMeter) count(path string, start time.Time) {
	m.ns.Add(int64(time.Since(start)))
	m.n.Add(1)
	if m.hook != nil {
		m.hook(path)
	}
}

// Syncs returns the sync count and the time spent syncing.
func (m *syncMeter) Syncs() (int64, time.Duration) {
	return m.n.Load(), time.Duration(m.ns.Load())
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives power loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile is the atomic write: temp file in the destination directory
// (created, with its new parents synced, if missing), write, fsync, rename
// over the final name, fsync the directory.
func (d *FileDisk) writeFile(name string, p []byte) error {
	path, err := d.path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	if err := d.mkdirAll(dir); err != nil {
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	if _, err := tmp.Write(p); err != nil {
		return cleanup(err)
	}
	if err := d.syncs.Sync(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	d.invalidate(name)
	if err := d.syncs.syncDir(dir); err != nil {
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	return nil
}

// Delete removes a blob. Deleting a missing blob is a no-op.
func (d *FileDisk) Delete(name string) {
	path, err := d.path(name)
	if err != nil {
		return
	}
	d.dirMu.Lock()
	defer d.dirMu.Unlock()
	_ = os.Remove(path)
	d.invalidate(name)
}

// Exists reports whether the named blob exists.
func (d *FileDisk) Exists(name string) bool {
	path, err := d.path(name)
	if err != nil {
		return false
	}
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// Size returns the length of the named blob.
func (d *FileDisk) Size(name string) (int64, error) {
	path, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("store: %s: %w", name, err)
	}
	return fi.Size(), nil
}

// List returns the names of all blobs with the given prefix, sorted. The
// walk starts at the deepest directory the prefix names, so listing one
// table's pages does not visit every other blob under the root.
func (d *FileDisk) List(prefix string) []string {
	start := d.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		dir, err := d.path(prefix[:i])
		if err != nil {
			return nil
		}
		start = dir
	}
	var names []string
	_ = filepath.WalkDir(start, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil //nolint:nilerr // a vanished entry is simply not listed
		}
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			return nil
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	sort.Strings(names)
	return names
}

// Preload installs a blob without transfer accounting (setup operation).
func (d *FileDisk) Preload(name string, p []byte) {
	_ = d.writeFile(name, p)
}

// WriteBlob atomically replaces the named blob's contents and fsyncs, so a
// successful return means the data survives power loss.
func (d *FileDisk) WriteBlob(name string, p []byte) error {
	start := time.Now()
	if err := d.writeFile(name, p); err != nil {
		return err
	}
	d.writeBusyNs.Add(int64(time.Since(start)))
	d.writeOps.Add(1)
	d.writeBytes.Add(int64(len(p)))
	return nil
}

// Kept read handles. A warm scan reads the same few hundred segment blobs
// query after query, and opening and closing a file around each positional
// read costs more than the read itself once the pages sit in the page cache;
// ReadAt therefore keeps the handle it opened, up to maxReadHandles of them.
//
// A kept handle names an inode, not a path, so whatever makes a name mean a
// different file drops the name's handle: WriteBlob and Preload (rename
// over the name) and Delete, each after the directory change and before it
// returns. A file edited in place behind the disk's back is seen through the
// handle; one replaced or removed from outside is not — only this FileDisk
// may change what a name points at while it is open.
//
// Nothing closes the set: the handles of an abandoned FileDisk are closed by
// os.File's finalizer.

// maxReadHandles bounds the kept handles, and with them the descriptors a
// FileDisk holds open. A commit blob holds the segments of up to eight
// chunks (dbstore's commitChunks), so the benchmark's largest table, 128
// chunks, is 16 blobs per load of its columns, and a handful of column
// groups loaded at different times stays far inside the bound. A data-dir
// of the older layouts has one or two blobs per chunk: 256 for that table,
// the bound itself. A daemon's descriptor limit is rarely under 1024.
const maxReadHandles = 256

// readHandle is one open file. refs counts the set's own reference plus the
// reads in flight, so a handle dropped from the set mid-read is closed by the
// last reader, never under one. Guarded by FileDisk.handleMu.
type readHandle struct {
	f    *os.File
	refs int
}

// acquire returns the kept handle for name with a reference taken, opening
// the file on a miss. Only a miss validates the name and builds its path: a
// name is kept only once it has passed, so a hit costs a map lookup. The
// open happens under handleMu: an invalidation follows its rename or remove,
// so it either finds the handle this call inserted or ran before the open saw
// the directory — a handle on a replaced file cannot be left in the set.
// When the set is full an arbitrary handle makes room (map order: unlike
// least-recently-used it keeps some of a scan that cycles through more blobs
// than the bound).
func (d *FileDisk) acquire(name string) (*readHandle, error) {
	d.handleMu.Lock()
	defer d.handleMu.Unlock()
	if h := d.handles[name]; h != nil {
		h.refs++
		return h, nil
	}
	path, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	if len(d.handles) >= maxReadHandles {
		for victim := range d.handles {
			d.dropLocked(victim)
			break
		}
	}
	h := &readHandle{f: f, refs: 2}
	d.handles[name] = h
	return h, nil
}

// release returns a reference taken by acquire.
func (d *FileDisk) release(h *readHandle) {
	d.handleMu.Lock()
	defer d.handleMu.Unlock()
	d.unrefLocked(h)
}

// invalidate drops the kept handle for name, if any.
func (d *FileDisk) invalidate(name string) {
	d.handleMu.Lock()
	defer d.handleMu.Unlock()
	d.dropLocked(name)
}

func (d *FileDisk) dropLocked(name string) {
	if h := d.handles[name]; h != nil {
		delete(d.handles, name)
		d.unrefLocked(h)
	}
}

func (d *FileDisk) unrefLocked(h *readHandle) {
	if h.refs--; h.refs == 0 {
		h.f.Close() // read-only: nothing to lose
	}
}

// ReadAt reads len(p) bytes from the blob starting at off, through the
// name's kept handle. A short read with a nil error means the blob ended
// (the Disk contract).
func (d *FileDisk) ReadAt(name string, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative offset %d reading %s", off, name)
	}
	start := time.Now()
	h, err := d.acquire(name)
	if err != nil {
		return 0, err
	}
	n, err := h.f.ReadAt(p, off)
	d.release(h)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, fmt.Errorf("store: reading %s at %d: %w", name, off, err)
	}
	d.readBusyNs.Add(int64(time.Since(start)))
	d.readOps.Add(1)
	d.readBytes.Add(int64(n))
	return n, nil
}

// ReadBlob reads the entire named blob.
func (d *FileDisk) ReadBlob(name string) ([]byte, error) {
	path, err := d.path(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	d.readBusyNs.Add(int64(time.Since(start)))
	d.readOps.Add(1)
	d.readBytes.Add(int64(len(p)))
	return p, nil
}

// Stats returns cumulative transfer statistics. Busy durations are real
// wall-clock I/O time, so the utilization meters work unchanged over a
// durable disk.
func (d *FileDisk) Stats() vdisk.Stats {
	return vdisk.Stats{
		ReadOps:    d.readOps.Load(),
		WriteOps:   d.writeOps.Load(),
		ReadBytes:  d.readBytes.Load(),
		WriteBytes: d.writeBytes.Load(),
		ReadBusy:   time.Duration(d.readBusyNs.Load()),
		WriteBusy:  time.Duration(d.writeBusyNs.Load()),
	}
}
