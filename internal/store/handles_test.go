package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"testing"
)

// readAll reads up to 64 bytes of a blob through ReadAt.
func readAll(t *testing.T, d *FileDisk, name string) string {
	t.Helper()
	buf := make([]byte, 64)
	n, err := d.ReadAt(name, buf, 0)
	if err != nil {
		t.Fatalf("ReadAt(%s): %v", name, err)
	}
	return string(buf[:n])
}

// TestKeptHandleInvalidation: ReadAt keeps the file it opened, so everything
// that changes what a name points at must be visible to the next ReadAt of
// it.
func TestKeptHandleInvalidation(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlob("t/b", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, "t/b"); got != "first" {
		t.Fatalf("read %q", got)
	}
	if len(d.handles) != 1 {
		t.Fatalf("%d kept handles after one read, want 1", len(d.handles))
	}
	if err := d.WriteBlob("t/b", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, "t/b"); got != "second" {
		t.Errorf("after WriteBlob read %q, want the new contents", got)
	}
	d.Preload("t/b", []byte("third"))
	if got := readAll(t, d, "t/b"); got != "third" {
		t.Errorf("after Preload read %q, want the new contents", got)
	}
	d.Delete("t/b")
	if _, err := d.ReadAt("t/b", make([]byte, 4), 0); err == nil {
		t.Error("ReadAt of a deleted blob succeeded through a stale handle")
	}
	if len(d.handles) != 0 {
		t.Errorf("%d kept handles after Delete, want 0", len(d.handles))
	}
}

// TestKeptHandleReadAllocatesNothing: a read through a kept handle neither
// validates the name again nor builds its path, so it allocates nothing; a
// name that fails validation is never kept, so it fails on every read.
func TestKeptHandleReadAllocatesNothing(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Preload("db/t/seg", bytes.Repeat([]byte{7}, 4096))
	buf := make([]byte, 512)
	readAll(t, d, "db/t/seg")
	if allocs := testing.AllocsPerRun(100, func() {
		if n, err := d.ReadAt("db/t/seg", buf, 1024); err != nil || n != len(buf) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Errorf("kept-handle ReadAt allocates %.1f times, want 0", allocs)
	}
	for _, name := range []string{"", ".", "..", "../x", "a/../b", "a//b", ".tmp-x", "a/.tmp-b"} {
		for i := 0; i < 2; i++ {
			if _, err := d.ReadAt(name, buf, 0); err == nil {
				t.Errorf("ReadAt(%q) should fail", name)
			}
		}
	}
	if len(d.handles) != 1 {
		t.Errorf("%d kept handles, want only the valid name's", len(d.handles))
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestKeptHandlesBounded: reading more distinct blobs than the bound keeps at
// most the bound open, and every blob still reads back right.
func TestKeptHandlesBounded(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const blobs = maxReadHandles + 64
	for i := 0; i < blobs; i++ {
		d.Preload(fmt.Sprintf("b/%04d", i), []byte(fmt.Sprintf("blob-%04d", i)))
	}
	before := openFDs(t)
	for round := 0; round < 2; round++ {
		for i := 0; i < blobs; i++ {
			if got, want := readAll(t, d, fmt.Sprintf("b/%04d", i)), fmt.Sprintf("blob-%04d", i); got != want {
				t.Fatalf("blob %d read %q, want %q", i, got, want)
			}
		}
	}
	if n := len(d.handles); n != maxReadHandles {
		t.Errorf("%d kept handles after reading %d blobs, want the bound %d", n, blobs, maxReadHandles)
	}
	// Other tests of the package may hold a few descriptors of their own.
	if grew := openFDs(t) - before; grew > maxReadHandles+8 {
		t.Errorf("open descriptors grew by %d, bound is %d", grew, maxReadHandles)
	}
}

// TestKeptHandleConcurrentReplace: readers, a replacer and a deleter on one
// name. A read sees one whole version or a clean not-found — never bytes of
// two versions, and never an error from a handle closed under it.
func TestKeptHandleConcurrentReplace(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	version := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	if err := d.WriteBlob("hot", version('a')); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			if err := d.WriteBlob("hot", version('a'+byte(i%26))); err != nil {
				t.Errorf("WriteBlob: %v", err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < rounds/4; i++ {
			d.Delete("hot")
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 4096)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := d.ReadAt("hot", buf, 0)
				if err != nil {
					if !errors.Is(err, fs.ErrNotExist) {
						t.Errorf("ReadAt: %v", err)
						return
					}
					continue
				}
				if n != len(buf) || bytes.Count(buf, buf[:1]) != len(buf) {
					t.Errorf("torn read: %d bytes, first %q", n, buf[0])
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// BenchmarkFileDiskReadAt is a warm page transfer: 32 KB from a blob in the
// page cache through its kept handle.
func BenchmarkFileDiskReadAt(b *testing.B) {
	d, err := OpenFileDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	d.Preload("seg", bytes.Repeat([]byte{7}, 1<<20))
	buf := make([]byte, 32<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := d.ReadAt("seg", buf, int64(i%32)<<15); err != nil || n != len(buf) {
			b.Fatalf("ReadAt = %d, %v", n, err)
		}
	}
}
