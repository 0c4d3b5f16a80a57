package fixture

// Witnesses for which assignments carry a CRC verdict and for the
// read-before-overwrite scan.

type reader struct {
	err  error
	page []byte
}

// Good: assignments that are not a single verified-decode call carry no
// verdict.
func goodNotAVerdict(p []byte) int {
	a, b := len(p), cap(p)
	c := a
	d := size(p)
	return b + c + d
}

// Good: a verdict stored into a field is read by whoever reads the field.
func (r *reader) goodFieldVerdict(p []byte) {
	r.page, r.err = openPage(p)
}

// Bad: the verdict is overwritten by an unrelated call before it is read;
// the later check reads the wrong error.
func badClobberedBeforeRead(p []byte) error {
	_, err := openPage(p) // want
	err = flush()
	if err != nil {
		return err
	}
	return nil
}

// Bad: captured and never mentioned again.
func badNeverRead(p []byte) {
	_, err := DecodeRecord(p) // want
	apply(p)
}

// Good: only the decode's own verdict is tracked — a read inside a nested
// literal is the literal's business, but the check after it still counts.
func goodReadAfterLiteral(p []byte, each func(func())) error {
	rec, err := DecodeMessage(p)
	each(func() { apply(rec) })
	if err != nil {
		return err
	}
	return nil
}

// Bad: a deferred literal is its own function; the verdict it drops is
// dropped all the same.
func badDiscardInLiteral(p []byte) {
	defer func() {
		LoadFleetConfig() // want
	}()
}
