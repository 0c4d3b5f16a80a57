package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	storepkg "scanraw/internal/store"
)

// TestMain runs the daemon's main instead of the tests when the test binary
// is re-executed with runMainEnv set, so a test can drive main's flag
// handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "SCANRAWD_TEST_RUN_MAIN"

// -consume-workers stays on the flag surface with its default of 1, but
// consume is serial: any other value stops the daemon at start-up, before it
// stages a table or listens.
func TestConsumeWorkersFlagRejected(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(csv, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-consume-workers", "2",
		"-file", csv, "-schema", "a:int,b:int", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("scanrawd -consume-workers 2: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-consume-workers 2: consume is serial") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr.String())
	}
}

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
