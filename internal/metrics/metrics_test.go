package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/vdisk"
)

func TestBusyCounter(t *testing.T) {
	var b BusyCounter
	b.Add(10 * time.Millisecond)
	b.Add(5 * time.Millisecond)
	b.Add(-3 * time.Millisecond) // negative ignored
	if got := b.Total(); got != 15*time.Millisecond {
		t.Errorf("Total = %v, want 15ms", got)
	}
}

func TestBusyCounterConcurrent(t *testing.T) {
	var b BusyCounter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := b.Total(); got != 1000*time.Microsecond {
		t.Errorf("Total = %v, want 1ms", got)
	}
}

// TestMeterCapturesActivity samples a meter on a ticker, the way Fig. 9
// does, while a throttled read and a worker task run.
func TestMeterCapturesActivity(t *testing.T) {
	d := vdisk.New(vdisk.Config{ReadBandwidth: 10 << 20})
	d.Preload("f", make([]byte, 2<<20))
	var cpu BusyCounter
	var progress atomic.Uint64 // math.Float64bits of the progress
	m := NewMeter(d, cpu.Total)
	var samples []Sample
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, m.Sample(math.Float64frombits(progress.Load())))
			}
		}
	}()

	// Generate disk + CPU activity for ~200ms.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := d.ReadBlob("f"); err != nil { // ~200ms at 10MB/s
			t.Error(err)
		}
		progress.Store(math.Float64bits(1.0))
	}()
	go func() {
		start := time.Now()
		time.Sleep(100 * time.Millisecond)
		cpu.Add(time.Since(start))
	}()
	<-done
	time.Sleep(30 * time.Millisecond)
	close(stop)
	<-stopped

	if len(samples) < 5 {
		t.Fatalf("got %d samples, want several", len(samples))
	}
	var sawIO, sawCPU bool
	for _, s := range samples {
		if s.ReadPercent > 50 {
			sawIO = true
		}
		if s.CPUPercent > 50 {
			sawCPU = true
		}
		if s.IOPercent != s.ReadPercent+s.WritePercent {
			t.Errorf("IOPercent %v != read %v + write %v", s.IOPercent, s.ReadPercent, s.WritePercent)
		}
	}
	if !sawIO {
		t.Error("meter never observed disk busy")
	}
	if !sawCPU {
		t.Error("meter never observed CPU busy")
	}
	if last := samples[len(samples)-1]; last.Progress != 1.0 {
		t.Errorf("final progress = %v", last.Progress)
	}
	// Samples are time-ordered.
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Errorf("samples out of order at %d", i)
		}
	}
}

// fakeDisk is a DiskStats whose counters the test sets.
type fakeDisk struct{ st vdisk.Stats }

func (f *fakeDisk) Stats() vdisk.Stats { return f.st }

// TestMeterSamplesDifferences: each Sample reports only what changed since
// the previous one, and CPU and disk busy time over the same interval
// scale alike.
func TestMeterSamplesDifferences(t *testing.T) {
	d := &fakeDisk{st: vdisk.Stats{ReadBusy: time.Hour}} // history before the meter
	var cpu BusyCounter
	cpu.Add(time.Hour)
	m := NewMeter(d, cpu.Total)

	time.Sleep(5 * time.Millisecond)
	d.st.ReadBusy += 2 * time.Millisecond
	d.st.WriteBusy += time.Millisecond
	cpu.Add(2 * time.Millisecond)
	s1 := m.Sample(0.5)
	if s1.ReadPercent <= 0 || s1.CPUPercent != s1.ReadPercent {
		t.Errorf("read %v%%, cpu %v%%: want equal and positive (same busy time, same interval)", s1.ReadPercent, s1.CPUPercent)
	}
	if s1.WritePercent*2 != s1.ReadPercent {
		t.Errorf("write %v%% is not half of read %v%%", s1.WritePercent, s1.ReadPercent)
	}
	if s1.IOPercent != s1.ReadPercent+s1.WritePercent {
		t.Errorf("IOPercent %v != read %v + write %v", s1.IOPercent, s1.ReadPercent, s1.WritePercent)
	}
	if s1.Progress != 0.5 {
		t.Errorf("progress = %v, want 0.5", s1.Progress)
	}

	time.Sleep(time.Millisecond)
	s2 := m.Sample(1)
	if s2.CPUPercent != 0 || s2.IOPercent != 0 {
		t.Errorf("idle interval reported cpu %v%%, io %v%%", s2.CPUPercent, s2.IOPercent)
	}
	if s2.At <= s1.At {
		t.Errorf("At %v after %v", s2.At, s1.At)
	}
}
