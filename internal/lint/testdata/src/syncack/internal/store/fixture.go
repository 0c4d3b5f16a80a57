package fixture

// Mirrors the store durability surface: write+sync before every nil-error
// return, and no os.WriteFile/os.Create bypassing temp+fsync+rename.

// Bad: acks durability without an fsync after the write.
func badAckWithoutSync(f *LogFile, p []byte) error {
	if _, err := f.Write(p); err != nil {
		return err
	}
	return nil // want
}

// Good: the sync sits between the last write and the ack.
func goodSyncedAck(f *LogFile, p []byte) error {
	if _, err := f.Write(p); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return nil
}

// Bad: os.WriteFile drops bytes into a managed dir with no temp+rename.
func badWriteFileBypass(path string, p []byte) error {
	return os.WriteFile(path, p, 0o644) // want
}

// Bad: os.Create bypasses the atomic-write dance the same way.
func badCreateBypass(path string) error {
	f, err := os.Create(path) // want
	if err != nil {
		return err
	}
	return f.Close()
}

// Good: rename followed by a directory sync is the blessed atomic commit.
func goodRenameThenSyncDir(root, tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(root); err != nil {
		return err
	}
	return nil
}

// Bad: the rename publishes bytes no sync has made durable.
func badRenameUnsynced(tmp *LogFile, tmpName, path string, p []byte) error {
	if _, err := tmp.Write(p); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil { // want
		return err
	}
	return syncDir(path)
}

// Bad: the log is cut before the checkpoint renamed in to replace it is
// durable in its directory.
func badTruncateBeforeSyncDir(log *LogFile, tmpName, path string) error {
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if err := log.Truncate(0); err != nil { // want
		return err
	}
	return log.Sync()
}

// Good: a nil return before any write promises nothing.
func goodEarlyNil(f *LogFile, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if _, err := f.Write(p); err != nil {
		return err
	}
	return f.Sync()
}

// Good: a justified suppression for a path whose caller owns the sync.
func suppressedDeferredSync(f *LogFile, p []byte) error {
	if _, err := f.Write(p); err != nil {
		return err
	}
	//lint:ignore syncack fixture mirrors batched appends: the caller groups writes and syncs once before acking its client
	return nil
}
