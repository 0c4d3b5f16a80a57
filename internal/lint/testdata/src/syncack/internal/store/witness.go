package fixture

// Witnesses for which functions can ack, which returns are acks and which
// calls are writes.

// Good: a function that returns no error cannot ack durability.
func goodNoErrorResult(f *LogFile, p []byte) int {
	n, _ := f.Write(p)
	return n
}

// Good: nothing returned at all.
func goodNoResult(f *LogFile, p []byte) {
	f.Write(p)
	return
}

// Good: a non-nil error is not an ack; a bare return in a function with a
// named error result is not recognised as one either.
func goodNonNilReturns(f *LogFile, p []byte) (err error) {
	if _, err = f.Write(p); err != nil {
		return err
	}
	if len(p) == 0 {
		return
	}
	return errShort
}

// Good: a bare function called Write is not a file write.
func goodBareWrite(p []byte) error {
	Write(p)
	return nil
}

// Good: the package's own atomic writer syncs internally.
func goodAtomicWriter(d *FileDisk, name string, p []byte) error {
	if err := d.writeFile(name, p); err != nil {
		return err
	}
	return nil
}

// Bad: a truncate is a write; the sync before it does not cover it.
func badTruncateAfterSync(f *LogFile, n int64) (int64, error) {
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Truncate(n); err != nil {
		return 0, err
	}
	return n, nil // want
}

// Bad: a function literal that returns an error acks like any function.
func badLiteralAck(f *LogFile) func([]byte) error {
	return func(p []byte) error {
		if _, err := f.WriteString(string(p)); err != nil {
			return err
		}
		return nil // want
	}
}

// Good: the write in the literal is the literal's; the enclosing function
// wrote nothing.
func goodOuterOfLiteral(f *LogFile, run func(func() error) error) error {
	if err := run(func() error { _, err := f.WriteAt(nil, 0); return err }); err != nil {
		return err
	}
	return nil
}
