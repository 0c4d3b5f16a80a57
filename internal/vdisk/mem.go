package vdisk

import (
	"fmt"
	"sort"
	"sync"
)

// Mem is the in-memory blob backend: the original simulated-disk storage,
// now separated from the throttling layer so the same bandwidth model can
// wrap a durable backend.
type Mem struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

var _ Backend = (*Mem)(nil)

// NewMem creates an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{blobs: make(map[string][]byte)}
}

// Delete removes a blob. Deleting a missing blob is a no-op.
func (m *Mem) Delete(name string) {
	m.mu.Lock()
	delete(m.blobs, name)
	m.mu.Unlock()
}

// Exists reports whether the named blob exists.
func (m *Mem) Exists(name string) bool {
	m.mu.Lock()
	_, ok := m.blobs[name]
	m.mu.Unlock()
	return ok
}

// Size returns the length of the named blob.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.Lock()
	b, ok := m.blobs[name]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return int64(len(b)), nil
}

// List returns the names of all blobs with the given prefix, sorted.
func (m *Mem) List(prefix string) []string {
	m.mu.Lock()
	names := make([]string, 0, len(m.blobs))
	for n := range m.blobs {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			names = append(names, n)
		}
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names
}

// Preload installs a blob.
func (m *Mem) Preload(name string, p []byte) {
	m.mu.Lock()
	m.blobs[name] = append([]byte(nil), p...)
	m.mu.Unlock()
}

// WriteBlob replaces the named blob's contents.
func (m *Mem) WriteBlob(name string, p []byte) error {
	m.Preload(name, p)
	return nil
}

// ReadAt reads len(p) bytes from the named blob starting at off; a short
// read with nil error means the blob ended.
func (m *Mem) ReadAt(name string, p []byte, off int64) (int, error) {
	m.mu.Lock()
	b, ok := m.blobs[name]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if off < 0 {
		return 0, fmt.Errorf("vdisk: negative offset %d reading %s", off, name)
	}
	if off >= int64(len(b)) {
		return 0, nil
	}
	return copy(p, b[off:]), nil
}
