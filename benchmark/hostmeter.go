package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox gives the benchmark two cores of a shared host, and what the
// neighbours do shows: the CPU time a fixed piece of work needs moves by a
// factor of 1.1 to 2, core by core, in bursts of a fifth of a second and in
// phases of many minutes, invisibly to the guest (no steal time is accounted).
// Every workload slows by about that factor, whole runs at a time, so no
// statistic taken inside a run steadies a wall-clock number (README,
// "Steadying the numbers").
//
// hostMeter measures that factor while a workload runs. On every core the
// process may use, a thread pinned to it executes a fixed kernel ten times a
// second and records the thread CPU time it took: CPU time, not wall time, so
// that being preempted by the daemon or the clients does not count, only how
// fast the core ran. slowdown(from, to) is the mean kernel time over that
// interval, all cores together, divided by the fastest the run saw; the harness
// divides every timing by the slowdown over the interval it was measured in
// (and multiplies every rate), which turns it into the time the same work
// takes on this host when nobody else is on it.
//
// The kernel belongs to the harness and calls nothing of the program under
// test or of the standard library, so a change to either cannot move it. It
// costs ~3 ms of each core in every ~103 ms, the same on both sides of a
// comparison.
type hostMeter struct {
	stop    chan struct{}
	closed  sync.Once
	running sync.WaitGroup
	probes  []*coreProbe
	// Merged from the probes by close:
	samples []meterSample // every core's, in time order
	floor   float64       // a kernel run at the pace of the fastest slice seen
}

// coreProbe is one core's sampling thread and what it alone writes.
type coreProbe struct {
	samples []meterSample
	fastest float64 // slice
	sink    uint64  // keeps the kernels' results alive
}

type meterSample struct {
	at     time.Time // when the kernel started
	kernel float64   // thread CPU seconds it took
}

const (
	meterPeriod  = 100 * time.Millisecond // pause between two kernel runs
	meterPrelude = 30                     // back-to-back runs before the workload starts
	meterSlices  = 4                      // a kernel run is this many slices, timed one by one
	ilpRounds    = 250_000                // per slice
	parseBytes   = 256 << 10              // per slice
)

// ilpKernel is throughput-bound: independent integer chains that keep the
// core's execution units full, which is what slows when another thread shares
// them.
func ilpKernel(n int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e += a ^ uint64(i)
		f += b >> 3
		g ^= c << 1
		h += d | 1
	}
	return a + b + c + d + e + f + g + h
}

// meterText is digits and commas for parseKernel, one stretch per slice.
var meterText = func() []byte {
	b := make([]byte, meterSlices*parseBytes)
	x := uint32(12345)
	for i := range b {
		x = x*1664525 + 1013904223
		if x>>28 == 0 {
			b[i] = ','
		} else {
			b[i] = '0' + byte(x>>24)%10
		}
	}
	return b
}()

// parseKernel is branchy and streams memory, like the text conversion that
// dominates a cold scan.
func parseKernel(text []byte) uint64 {
	var sum, v uint64
	for _, c := range text {
		if c == ',' {
			sum += v
			v = 0
		} else {
			v = v*10 + uint64(c-'0')
		}
	}
	return sum + v
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("benchmark: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// allowedCPUs lists the cores the process may run on (sched_getaffinity).
func allowedCPUs() ([]int, error) {
	var mask [16]uint64 // 1024 cores
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread binds the calling OS thread to one core.
func pinThread(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	return nil
}

// runKernel executes one kernel run. The slices (~0.7 ms each) exist for the
// floor: while a neighbour is busy for minutes on end, a quiet 3 ms is rare and
// a quiet 0.7 ms is not.
func (p *coreProbe) runKernel() {
	s := meterSample{at: time.Now()}
	for i := 0; i < meterSlices; i++ {
		c := threadCPU()
		p.sink += ilpKernel(ilpRounds) + parseKernel(meterText[i*parseBytes:(i+1)*parseBytes])
		slice := (threadCPU() - c).Seconds()
		s.kernel += slice
		p.fastest = min(p.fastest, slice)
	}
	p.samples = append(p.samples, s)
}

// startHostMeter starts a probe on every core and returns once each has taken
// its prelude (~0.1 s, on a host the workload has not loaded yet, so the floor
// is the same from run to run); they sample in the background until close.
func startHostMeter() (*hostMeter, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	m := &hostMeter{stop: make(chan struct{})}
	pinned := make(chan error, len(cpus)) // one send per probe
	for _, cpu := range cpus {
		p := &coreProbe{fastest: math.Inf(1)}
		m.probes = append(m.probes, p)
		m.running.Add(1)
		go func() {
			defer m.running.Done()
			// The thread stays locked: it ends with the goroutine, and its
			// affinity with it.
			runtime.LockOSThread()
			if err := pinThread(cpu); err != nil {
				pinned <- err
				return
			}
			for i := 0; i < meterPrelude; i++ {
				p.runKernel()
			}
			pinned <- nil
			for {
				select {
				case <-m.stop:
					return
				case <-time.After(meterPeriod):
				}
				p.runKernel()
			}
		}()
	}
	for range cpus {
		if e := <-pinned; e != nil {
			err = e
		}
	}
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// close stops the probes and merges what they recorded. slowdown is valid
// only afterwards: the floor is the fastest slice of the whole run. A second
// close is a no-op.
func (m *hostMeter) close() {
	m.closed.Do(func() {
		close(m.stop)
		m.running.Wait()
		m.floor = math.Inf(1)
		for _, p := range m.probes {
			m.samples = append(m.samples, p.samples...)
			m.floor = min(m.floor, meterSlices*p.fastest)
		}
		sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].at.Before(m.samples[j].at) })
	})
}

// slowdown is how much slower than its floor the host ran between from and
// to: the mean of the samples that started in the interval, widened by one
// period on both sides so that the shortest query has a sample; at least 1.
func (m *hostMeter) slowdown(from, to time.Time) float64 {
	from, to = from.Add(-meterPeriod), to.Add(meterPeriod)
	lo := sort.Search(len(m.samples), func(i int) bool { return !m.samples[i].at.Before(from) })
	hi := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].at.After(to) })
	if lo == hi { // a gap in the samples: take the nearest on either side
		lo, hi = max(lo-1, 0), min(hi+1, len(m.samples))
	}
	total := 0.0
	for _, s := range m.samples[lo:hi] {
		total += s.kernel
	}
	return total / float64(hi-lo) / m.floor
}

// timed is one measured interval: a query, a set-up step, a loop's window.
type timed struct {
	at time.Time
	d  time.Duration
}

func since(at time.Time) timed { return timed{at, time.Since(at)} }

// quiet is the interval's length with the host's slowdown taken out, in
// seconds.
func (m *hostMeter) quiet(t timed) float64 {
	return t.d.Seconds() / m.slowdown(t.at, t.at.Add(t.d))
}

// quietAll is quiet over a list, scaled (1 for seconds, 1e3 for ms).
func (m *hostMeter) quietAll(ts []timed, scale float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = m.quiet(t) * scale
	}
	return out
}
