package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	storepkg "scanraw/internal/store"
)

// A staging write that fails must fail start-up: FileDisk.Preload swallows
// the error, and the daemon would go on to fingerprint bytes that are not on
// disk.
func TestStageNoticesFailedWrite(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		root := filepath.Join(t.TempDir(), "blobs")
		disk, err := storepkg.OpenFileDisk(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := stage(disk, "raw/t", []byte("1,2\n3,4\n")); err != nil {
			t.Fatalf("staging into a healthy data dir: %v", err)
		}
	})
	t.Run("unwritable", func(t *testing.T) {
		// A file where the raw/ directory should be: the write cannot even
		// create its temp file (works as root too, unlike a mode change).
		root := filepath.Join(t.TempDir(), "blobs")
		disk, err := storepkg.OpenFileDisk(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "raw"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := stage(disk, "raw/t", []byte("1,2\n")); err == nil {
			t.Fatal("staging into an unwritable data dir reported success")
		}
	})
	t.Run("read-only over an older blob", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root writes through directory permissions")
		}
		root := filepath.Join(t.TempDir(), "blobs")
		disk, err := storepkg.OpenFileDisk(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := stage(disk, "raw/t", []byte("old,contents\n")); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(filepath.Join(root, "raw"), 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(filepath.Join(root, "raw"), 0o755)
		err = stage(disk, "raw/t", []byte("new\n"))
		if err == nil || !strings.Contains(err.Error(), "bytes on disk") {
			t.Fatalf("staging over an older blob in a read-only dir: want a size mismatch, got %v", err)
		}
	})
}
