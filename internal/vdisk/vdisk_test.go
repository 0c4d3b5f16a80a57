package vdisk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := Unlimited()
	data := []byte("hello, in-situ world")
	if err := d.WriteBlob("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBlob("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("ReadBlob = %q, want %q", got, data)
	}
}

func TestReadMissing(t *testing.T) {
	d := Unlimited()
	if _, err := d.ReadBlob("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	if _, err := d.Size("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Size err = %v, want ErrNotExist", err)
	}
	buf := make([]byte, 4)
	if _, err := d.ReadAt("nope", buf, 0); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadAt err = %v, want ErrNotExist", err)
	}
}

func TestReadAtPartial(t *testing.T) {
	d := Unlimited()
	if err := d.WriteBlob("f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, err := d.ReadAt("f", buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || string(buf[:n]) != "89" {
		t.Errorf("ReadAt(8) = %d %q", n, buf[:n])
	}
	// Past the end: short read of zero bytes, no error.
	n, err = d.ReadAt("f", buf, 100)
	if err != nil || n != 0 {
		t.Errorf("ReadAt past end = %d,%v, want 0,nil", n, err)
	}
	if _, err := d.ReadAt("f", buf, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

func TestCreateTruncatesAndDelete(t *testing.T) {
	d := Unlimited()
	if err := d.WriteBlob("f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlob("f", nil); err != nil {
		t.Fatal(err)
	}
	sz, _ := d.Size("f")
	if sz != 0 || !d.Exists("f") {
		t.Errorf("an empty write should leave an empty blob, size = %d", sz)
	}
	d.Delete("f")
	if d.Exists("f") {
		t.Error("Delete should remove the blob")
	}
	d.Delete("f") // no-op
}

func TestList(t *testing.T) {
	d := Unlimited()
	for _, n := range []string{"db/t1/c0", "db/t1/c1", "raw/file", "db/t2/c0"} {
		d.Preload(n, nil)
	}
	got := d.List("db/t1/")
	want := []string{"db/t1/c0", "db/t1/c1"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if all := d.List(""); len(all) != 4 {
		t.Errorf("List(\"\") = %v", all)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := Unlimited()
	if err := d.WriteBlob("f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBlob("f"); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.WriteOps != 1 || s.WriteBytes != 100 {
		t.Errorf("write stats = %+v", s)
	}
	if s.ReadOps != 1 || s.ReadBytes != 100 {
		t.Errorf("read stats = %+v", s)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{ReadOps: 5, WriteOps: 3, ReadBytes: 100, WriteBytes: 50, ReadBusy: 10, WriteBusy: 4}
	b := Stats{ReadOps: 2, WriteOps: 1, ReadBytes: 40, WriteBytes: 20, ReadBusy: 3, WriteBusy: 1}
	diff := a.Sub(b)
	if diff.ReadOps != 3 || diff.WriteOps != 2 || diff.ReadBytes != 60 ||
		diff.WriteBytes != 30 || diff.ReadBusy != 7 || diff.WriteBusy != 3 {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestThrottledReadTakesTime(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100 ms of busy time.
	d := New(Config{ReadBandwidth: 10 << 20})
	if err := d.WriteBlob("f", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.ReadBlob("f"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("throttled read took %v, want >= ~100ms", elapsed)
	}
	s := d.Stats()
	if s.ReadBusy < 80*time.Millisecond {
		t.Errorf("ReadBusy = %v, want >= ~100ms", s.ReadBusy)
	}
}

func TestSerializedAccess(t *testing.T) {
	// Two concurrent 0.5 MB reads at 10 MB/s must serialize: total wall
	// time ~100 ms, not ~50 ms.
	d := New(Config{ReadBandwidth: 10 << 20})
	if err := d.WriteBlob("f", make([]byte, 512<<10)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.ReadBlob("f"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("concurrent reads finished in %v; disk is not serializing", elapsed)
	}
}

func TestDebtPacingAggregateAccuracy(t *testing.T) {
	// Many sub-millisecond transfers must still cost their aggregate
	// model time: 200 x 16 KiB at 32 MB/s = 3.2 MiB -> 100 ms total, even
	// though each individual op's delay (~0.5 ms) is below the sleep
	// threshold.
	d := New(Config{WriteBandwidth: 32 << 20})
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := d.WriteBlob("f", make([]byte, 16<<10)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("200 small writes took %v, want >= ~100ms aggregate", elapsed)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("200 small writes took %v; per-op overhead is leaking in", elapsed)
	}
	// Busy accounting reflects nominal model time.
	if busy := d.Stats().WriteBusy; busy < 90*time.Millisecond || busy > 110*time.Millisecond {
		t.Errorf("WriteBusy = %v, want ~100ms nominal", busy)
	}
}

func TestFailureInjection(t *testing.T) {
	d := Unlimited()
	if err := d.WriteBlob("f", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	d.SetFailure(func(op, name string) error {
		if op == "read" && name == "f" {
			return ErrInjected
		}
		return nil
	})
	if _, err := d.ReadBlob("f"); !errors.Is(err, ErrInjected) {
		t.Errorf("read err = %v, want ErrInjected", err)
	}
	if err := d.WriteBlob("g", []byte("fine")); err != nil {
		t.Errorf("unrelated write failed: %v", err)
	}
	d.SetFailure(nil)
	if _, err := d.ReadBlob("f"); err != nil {
		t.Errorf("after clearing failure: %v", err)
	}
}

func TestFailureDoesNotCorrupt(t *testing.T) {
	d := Unlimited()
	if err := d.WriteBlob("f", []byte("original")); err != nil {
		t.Fatal(err)
	}
	d.SetFailure(func(op, name string) error { return ErrInjected })
	if err := d.WriteBlob("f", []byte("clobbered")); err == nil {
		t.Fatal("write should have failed")
	}
	d.SetFailure(nil)
	got, _ := d.ReadBlob("f")
	if string(got) != "original" {
		t.Errorf("blob corrupted by failed write: %q", got)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	d := Unlimited()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("blob-%d", i)
			for j := 0; j < 50; j++ {
				if err := d.WriteBlob(name, []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
			}
			b, err := d.ReadBlob(name)
			if err != nil {
				t.Error(err)
				return
			}
			if len(b) != 1 || b[0] != 49 {
				t.Errorf("blob %s = %v, want the last write [49]", name, b)
			}
		}(i)
	}
	wg.Wait()
	if s := d.Stats(); s.WriteOps != 8*50 {
		t.Errorf("WriteOps = %d, want 400", s.WriteOps)
	}
}

// Property: ReadAt never returns data that differs from the blob contents,
// for any offset and buffer size.
func TestReadAtWindowProperty(t *testing.T) {
	f := func(data []byte, off uint16, n uint8) bool {
		d := Unlimited()
		if err := d.WriteBlob("f", data); err != nil {
			return false
		}
		buf := make([]byte, int(n))
		got, err := d.ReadAt("f", buf, int64(off))
		if err != nil {
			return false
		}
		if int(off) >= len(data) {
			return got == 0
		}
		want := data[off:]
		if len(want) > len(buf) {
			want = want[:len(buf)]
		}
		return got == len(want) && bytes.Equal(buf[:got], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
