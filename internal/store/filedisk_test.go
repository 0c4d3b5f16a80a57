package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scanraw/internal/vdisk"
)

func TestFileDiskBlobRoundTrip(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d.Exists("a/b") {
		t.Error("blob exists before write")
	}
	if err := d.WriteBlob("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !d.Exists("a/b") {
		t.Error("blob missing after write")
	}
	sz, err := d.Size("a/b")
	if err != nil || sz != 5 {
		t.Errorf("Size = %d, %v; want 5, nil", sz, err)
	}
	p, err := d.ReadBlob("a/b")
	if err != nil || string(p) != "hello" {
		t.Errorf("ReadBlob = %q, %v", p, err)
	}
	// Overwrite is atomic replacement, not append.
	if err := d.WriteBlob("a/b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if p, _ := d.ReadBlob("a/b"); string(p) != "x" {
		t.Errorf("after overwrite: %q", p)
	}
	d.Delete("a/b")
	if d.Exists("a/b") {
		t.Error("blob exists after delete")
	}
	if _, err := d.ReadBlob("a/b"); err == nil {
		t.Error("reading deleted blob should fail")
	}
}

func TestFileDiskReadAtShortRead(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlob("b", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	// Read past the end: short read with nil error is the end-of-blob
	// signal, matching the vdisk contract.
	n, err := d.ReadAt("b", buf, 7)
	if err != nil || n != 3 || string(buf[:n]) != "789" {
		t.Errorf("ReadAt(7) = %d, %v, %q", n, err, buf[:n])
	}
	if n, err := d.ReadAt("b", buf, 20); err != nil || n != 0 {
		t.Errorf("ReadAt past end = %d, %v; want 0, nil", n, err)
	}
	if _, err := d.ReadAt("b", buf, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

func TestFileDiskList(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"db/t/0", "db/t/1", "db/u/0", "raw/x"} {
		if err := d.WriteBlob(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	got := d.List("db/t/")
	want := []string{"db/t/0", "db/t/1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("List(db/t/) = %v, want %v", got, want)
	}
	if got := d.List(""); len(got) != 4 {
		t.Errorf("List(\"\") = %v, want 4 names", got)
	}
	// The walk starts below the root, at the deepest directory the prefix
	// names; what follows the last slash still filters by name.
	for prefix, want := range map[string][]string{
		"db/":       {"db/t/0", "db/t/1", "db/u/0"},
		"db/t":      {"db/t/0", "db/t/1"},
		"db/t/1":    {"db/t/1"},
		"r":         {"raw/x"},
		"db/none/":  nil,
		"db/../raw": nil,
		"/db":       nil,
	} {
		if got := d.List(prefix); !reflect.DeepEqual(got, want) {
			t.Errorf("List(%q) = %v, want %v", prefix, got, want)
		}
	}
}

func TestFileDiskRejectsBadNames(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "../x", "a/../b", "a//b", ".tmp-x", "a/.tmp-b"} {
		if err := d.WriteBlob(name, []byte("x")); err == nil {
			t.Errorf("WriteBlob(%q) should fail", name)
		}
		if _, err := d.ReadBlob(name); err == nil {
			t.Errorf("ReadBlob(%q) should fail", name)
		}
	}
}

func TestFileDiskLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.WriteBlob("db/t/page", []byte(strings.Repeat("x", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && strings.HasPrefix(filepath.Base(path), tmpPrefix) {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A stray temp file (crash mid-write) must be invisible to List.
	if err := os.WriteFile(filepath.Join(dir, "db", "t", tmpPrefix+"junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range d.List("") {
		if strings.Contains(name, tmpPrefix) {
			t.Errorf("List exposes temp file %q", name)
		}
	}
}

// TestFileDiskAsThrottledBackend exercises the layering the daemon uses for
// a throttled durable disk: vdisk bandwidth model over file-backed blobs.
func TestFileDiskAsThrottledBackend(t *testing.T) {
	fd, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := vdisk.NewBacked(vdisk.Config{}, fd)
	if err := d.WriteBlob("a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p, err := d.ReadBlob("a")
	if err != nil || string(p) != "payload" {
		t.Fatalf("ReadBlob via wrapper = %q, %v", p, err)
	}
	// The file really landed on disk, not in a memory map.
	if q, err := fd.ReadBlob("a"); err != nil || string(q) != "payload" {
		t.Fatalf("ReadBlob via backend = %q, %v", q, err)
	}
	st := d.Stats()
	if st.WriteOps != 1 || st.ReadOps < 1 {
		t.Errorf("wrapper stats not counted: %+v", st)
	}
}

func TestFileDiskStats(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlob("s", []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadBlob("s"); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.WriteOps != 1 || st.WriteBytes != 8 || st.ReadOps != 1 || st.ReadBytes != 8 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFileDiskSyncsNewDirectories: a directory entry is durable only once its
// parent is synced, so every directory WriteBlob creates has its parent
// synced — root included — before the call returns, and a blob a call
// creates has its own directory synced. A write into an existing directory
// syncs the file and its directory and nothing else.
func TestFileDiskSyncsNewDirectories(t *testing.T) {
	base := filepath.Join(t.TempDir(), "data")
	var synced []string
	d := &FileDisk{root: filepath.Join(base, "blobs"), handles: make(map[string]*readHandle)}
	d.syncs.hook = func(path string) { synced = append(synced, path) }
	if err := d.mkdirAll(d.root); err != nil {
		t.Fatal(err)
	}
	has := func(want ...string) {
		t.Helper()
		for _, w := range want {
			found := false
			for _, p := range synced {
				found = found || p == w
			}
			if !found {
				t.Errorf("%s was not synced; synced: %v", w, synced)
			}
		}
	}
	has(filepath.Dir(base), base) // the root's two new entries
	root := d.root

	synced = nil
	if err := d.WriteBlob("db/t/c00000000", []byte("segment")); err != nil {
		t.Fatal(err)
	}
	has(root, filepath.Join(root, "db"), filepath.Join(root, "db", "t"))

	before, _ := d.Syncs()
	if err := d.WriteBlob("db/t/c00000001", []byte("segment")); err != nil {
		t.Fatal(err)
	}
	if after, _ := d.Syncs(); after-before != 2 {
		t.Errorf("a write into an existing directory cost %d syncs, want 2 (file, directory)", after-before)
	}
}
