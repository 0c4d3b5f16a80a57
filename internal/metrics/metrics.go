// Package metrics samples CPU (worker-busy) and I/O (disk-busy)
// utilization over time, reproducing the measurement behind the paper's
// Fig. 9: "CPU and I/O utilization as processing progresses", where CPU
// utilization is reported in percent-of-one-core units (800 = 8 busy
// workers) and I/O utilization as the fraction of wall-clock time the disk
// was servicing a transfer.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/vdisk"
)

// BusyCounter accumulates the total busy time of a set of workers. Workers
// Add the duration of each task; a Meter differentiates the cumulative total
// to get utilization per interval.
type BusyCounter struct {
	ns atomic.Int64
}

// Add records d of busy time.
func (b *BusyCounter) Add(d time.Duration) {
	if d > 0 {
		b.ns.Add(int64(d))
	}
}

// Total returns cumulative busy time.
func (b *BusyCounter) Total() time.Duration { return time.Duration(b.ns.Load()) }

// DiskStats is the slice of a disk the samplers need: a cumulative activity
// snapshot. Both the simulated *vdisk.Disk and the durable file-backed
// store satisfy it.
type DiskStats interface {
	Stats() vdisk.Stats
}

// Sample is one utilization measurement.
type Sample struct {
	// At is the elapsed time since the meter was built.
	At time.Duration
	// Progress is the externally supplied processing progress in [0,1].
	Progress float64
	// CPUPercent is worker busy time over the interval, in percent of one
	// core (N fully busy workers report N*100).
	CPUPercent float64
	// IOPercent is the fraction of the interval the disk was busy, split
	// into read and write components.
	IOPercent    float64
	ReadPercent  float64
	WritePercent float64
}

// Meter samples a disk and a worker-busy source: each Sample call reports
// utilization over the interval since the previous call. A GET /metrics
// handler pulls a sample when asked and pays nothing in between; Fig. 9
// calls Sample on its own ticker.
//
// The CPU source is a function rather than a single BusyCounter because a
// server aggregates worker-busy time across every live operator's pool.
type Meter struct {
	disk DiskStats
	cpu  func() time.Duration // cumulative worker-busy time

	mu       sync.Mutex
	start    time.Time
	lastAt   time.Time
	lastDisk vdisk.Stats
	lastCPU  time.Duration
}

// NewMeter builds a meter over a disk and a cumulative worker-busy-time
// source. The first Sample call reports utilization since construction.
func NewMeter(d DiskStats, cpu func() time.Duration) *Meter {
	now := time.Now()
	return &Meter{
		disk:     d,
		cpu:      cpu,
		start:    now,
		lastAt:   now,
		lastDisk: d.Stats(),
		lastCPU:  cpu(),
	}
}

// Sample returns utilization over the interval since the last Sample (or
// since construction): CPUPercent in percent-of-one-core (N busy workers
// report N*100), IO/Read/WritePercent as percent of wall-clock the disk was
// busy. At is the time since construction; progress is passed through.
func (m *Meter) Sample(progress float64) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	dt := now.Sub(m.lastAt)
	disk := m.disk.Stats()
	cpu := m.cpu()
	s := Sample{At: now.Sub(m.start), Progress: progress}
	if dt > 0 {
		d := disk.Sub(m.lastDisk)
		s.CPUPercent = 100 * float64(cpu-m.lastCPU) / float64(dt)
		s.ReadPercent = 100 * float64(d.ReadBusy) / float64(dt)
		s.WritePercent = 100 * float64(d.WriteBusy) / float64(dt)
		s.IOPercent = s.ReadPercent + s.WritePercent
	}
	m.lastAt, m.lastDisk, m.lastCPU = now, disk, cpu
	return s
}
