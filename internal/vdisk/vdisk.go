// Package vdisk implements a simulated disk: an in-memory blob store whose
// read and write operations are throttled to a configurable bandwidth and
// serialized through a single accessor, the way a single RAID volume
// serializes a database's READ and WRITE threads.
//
// The paper's experimental machine exposes one storage system shared by raw
// file reading and database writing; every headline result (the CPU-bound to
// I/O-bound crossover in Fig. 4, the disk-idle intervals exploited by
// speculative loading, the READ/WRITE interference the scheduler must avoid)
// is a function of that shared, bandwidth-limited device. Modelling the disk
// explicitly makes those effects deterministic and lets experiments dial the
// crossover point instead of depending on whatever hardware runs the tests.
//
// The disk also keeps busy-time accounting (cumulative nanoseconds spent in
// read and write operations) which the metrics package samples to produce
// the paper's Fig. 9 utilization trace.
package vdisk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotExist is returned when an operation references a blob that has not
// been created on the disk.
var ErrNotExist = errors.New("vdisk: blob does not exist")

// ErrInjected is the error produced by failure injection.
var ErrInjected = errors.New("vdisk: injected failure")

// Config controls the performance model of a Disk.
type Config struct {
	// ReadBandwidth is the sustained read rate in bytes per second.
	// Zero means unthrottled reads.
	ReadBandwidth int64
	// WriteBandwidth is the sustained write rate in bytes per second.
	// Zero means unthrottled writes.
	WriteBandwidth int64
}

// String describes the performance model, e.g. "read 400 MB/s, write 400
// MB/s".
func (c Config) String() string {
	return fmt.Sprintf("read %.0f MB/s, write %.0f MB/s",
		float64(c.ReadBandwidth)/(1<<20), float64(c.WriteBandwidth)/(1<<20))
}

// Stats is a snapshot of cumulative disk activity.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	// ReadBusy and WriteBusy are the cumulative wall-clock durations the
	// disk spent servicing reads and writes.
	ReadBusy  time.Duration
	WriteBusy time.Duration
}

// Busy returns the total time the disk was occupied.
func (s Stats) Busy() time.Duration { return s.ReadBusy + s.WriteBusy }

// Sub returns the difference s - o, used to compute per-interval
// utilization from two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadOps:    s.ReadOps - o.ReadOps,
		WriteOps:   s.WriteOps - o.WriteOps,
		ReadBytes:  s.ReadBytes - o.ReadBytes,
		WriteBytes: s.WriteBytes - o.WriteBytes,
		ReadBusy:   s.ReadBusy - o.ReadBusy,
		WriteBusy:  s.WriteBusy - o.WriteBusy,
	}
}

// FailFunc decides whether an operation should fail. It receives the
// operation kind ("read" or "write") and blob name; returning a non-nil
// error aborts the operation before any data is transferred.
type FailFunc func(op, name string) error

// Backend is the blob-storage layer a Disk throttles. The default is the
// in-memory Mem store; a durable file-backed store (internal/store's
// FileDisk) plugs in the same way, which is how experiments keep the
// deterministic bandwidth model while the data underneath survives
// restarts.
type Backend interface {
	Create(name string)
	Delete(name string)
	Exists(name string) bool
	Size(name string) (int64, error)
	List(prefix string) []string
	Preload(name string, p []byte)
	WriteBlob(name string, p []byte) error
	Append(name string, p []byte) (int64, error)
	ReadAt(name string, p []byte, off int64) (int, error)
}

// Disk is a simulated single-volume storage device: a bandwidth-throttling,
// busy-time-accounting wrapper around a blob Backend. All methods are safe
// for concurrent use; data transfers are serialized so that concurrent
// readers and writers interfere exactly as they would on one spindle.
type Disk struct {
	cfg     Config
	backend Backend

	io   sync.Mutex    // serializes (and paces) data transfers
	debt time.Duration // un-slept transfer time, guarded by io

	mu   sync.Mutex // guards fail
	fail FailFunc

	readOps    atomic.Int64
	writeOps   atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	readBusyNs atomic.Int64
	writeBusy  atomic.Int64
}

// New creates an empty in-memory disk with the given performance model.
func New(cfg Config) *Disk {
	return NewBacked(cfg, NewMem())
}

// NewBacked creates a disk with the given performance model over an
// arbitrary blob backend.
func NewBacked(cfg Config, b Backend) *Disk {
	return &Disk{cfg: cfg, backend: b}
}

// Unlimited creates a disk with no throttling, useful for unit tests where
// timing is irrelevant.
func Unlimited() *Disk { return New(Config{}) }

// Config returns the performance model the disk was created with.
func (d *Disk) Config() Config { return d.cfg }

// SetFailure installs (or clears, with nil) a failure-injection hook.
func (d *Disk) SetFailure(f FailFunc) {
	d.mu.Lock()
	d.fail = f
	d.mu.Unlock()
}

func (d *Disk) checkFail(op, name string) error {
	d.mu.Lock()
	f := d.fail
	d.mu.Unlock()
	if f == nil {
		return nil
	}
	return f(op, name)
}

// transferDelay computes how long moving n bytes should occupy the disk.
func transferDelay(n int, bw int64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

// sleepThreshold is the smallest delay worth actually sleeping for.
// time.Sleep overshoots sub-millisecond requests badly enough to distort
// the model, so smaller delays accumulate as debt and are paid in one
// sleep once they add up — aggregate timing stays accurate while
// per-operation overhead vanishes.
const sleepThreshold = time.Millisecond

// occupy serializes a transfer and accounts its busy time.
func (d *Disk) occupy(delay time.Duration, busy *atomic.Int64) {
	if delay < 0 {
		delay = 0
	}
	d.io.Lock()
	d.debt += delay
	if d.debt >= sleepThreshold {
		start := time.Now()
		time.Sleep(d.debt)
		// Oversleep becomes credit against future transfers.
		d.debt -= time.Since(start)
	}
	d.io.Unlock()
	// Account the nominal occupancy so utilization reflects the model,
	// not the scheduler's sleep jitter.
	busy.Add(int64(delay))
}

// Create creates an empty blob, truncating any existing blob with the same
// name. Creation is a metadata operation and is not throttled.
func (d *Disk) Create(name string) { d.backend.Create(name) }

// Delete removes a blob. Deleting a missing blob is a no-op.
func (d *Disk) Delete(name string) { d.backend.Delete(name) }

// Exists reports whether the named blob exists.
func (d *Disk) Exists(name string) bool { return d.backend.Exists(name) }

// Size returns the length of the named blob.
func (d *Disk) Size(name string) (int64, error) { return d.backend.Size(name) }

// List returns the names of all blobs with the given prefix, sorted.
func (d *Disk) List(prefix string) []string { return d.backend.List(prefix) }

// Preload installs a blob without throttling or accounting. It exists for
// experiment setup: materializing a raw file onto the disk must not consume
// the bandwidth budget the experiment is about to measure.
func (d *Disk) Preload(name string, p []byte) { d.backend.Preload(name, p) }

// WriteBlob replaces the named blob's contents in one throttled write.
// The blob is created if it does not exist.
func (d *Disk) WriteBlob(name string, p []byte) error {
	if err := d.checkFail("write", name); err != nil {
		return err
	}
	d.occupy(transferDelay(len(p), d.cfg.WriteBandwidth), &d.writeBusy)
	if err := d.backend.WriteBlob(name, p); err != nil {
		return err
	}
	d.writeOps.Add(1)
	d.writeBytes.Add(int64(len(p)))
	return nil
}

// Append appends p to the named blob (creating it if needed) and returns
// the offset at which the data landed.
func (d *Disk) Append(name string, p []byte) (int64, error) {
	if err := d.checkFail("write", name); err != nil {
		return 0, err
	}
	d.occupy(transferDelay(len(p), d.cfg.WriteBandwidth), &d.writeBusy)
	off, err := d.backend.Append(name, p)
	if err != nil {
		return 0, err
	}
	d.writeOps.Add(1)
	d.writeBytes.Add(int64(len(p)))
	return off, nil
}

// ReadAt reads len(p) bytes from the named blob starting at off. It returns
// the number of bytes read; fewer than len(p) bytes with a nil error means
// the blob ended (there is no io.EOF convention here — short read IS the
// end-of-blob signal, mirroring ReadFull-style usage in the pipeline).
func (d *Disk) ReadAt(name string, p []byte, off int64) (int, error) {
	if err := d.checkFail("read", name); err != nil {
		return 0, err
	}
	n, err := d.backend.ReadAt(name, p, off)
	if err != nil {
		return n, err
	}
	d.occupy(transferDelay(n, d.cfg.ReadBandwidth), &d.readBusyNs)
	d.readOps.Add(1)
	d.readBytes.Add(int64(n))
	return n, nil
}

// ReadBlob reads the entire named blob in one throttled read.
func (d *Disk) ReadBlob(name string) ([]byte, error) {
	sz, err := d.Size(name)
	if err != nil {
		return nil, err
	}
	p := make([]byte, sz)
	n, err := d.ReadAt(name, p, 0)
	if err != nil {
		return nil, err
	}
	return p[:n], nil
}

// Stats returns a snapshot of cumulative disk activity.
func (d *Disk) Stats() Stats {
	return Stats{
		ReadOps:    d.readOps.Load(),
		WriteOps:   d.writeOps.Load(),
		ReadBytes:  d.readBytes.Load(),
		WriteBytes: d.writeBytes.Load(),
		ReadBusy:   time.Duration(d.readBusyNs.Load()),
		WriteBusy:  time.Duration(d.writeBusy.Load()),
	}
}

// Syncs reports the backend's fsync count and the time spent in them, when
// it keeps them (a durable file backend does; memory has nothing to sync).
func (d *Disk) Syncs() (int64, time.Duration) {
	if s, ok := d.backend.(interface{ Syncs() (int64, time.Duration) }); ok {
		return s.Syncs()
	}
	return 0, 0
}

// ResetStats zeroes the activity counters (the blobs are untouched).
func (d *Disk) ResetStats() {
	d.readOps.Store(0)
	d.writeOps.Store(0)
	d.readBytes.Store(0)
	d.writeBytes.Store(0)
	d.readBusyNs.Store(0)
	d.writeBusy.Store(0)
}
