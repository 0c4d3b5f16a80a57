package fixture

// Witnesses for the forward tracker (phase A): where an acquire is
// recognised, what each statement after it means for the pin, and which
// branches are exempt.

// ── where an acquire is recognised ─────────────────────────────────────

// Bad: acquires nested in every kind of compound statement are tracked
// where they stand.
func badNestedAcquires(c *Cache, ids []int, x interface{}, ready chan int) {
	{
		bc := c.Acquire(0) // want
		bc.n++
	}
	if len(ids) == 0 {
		bc := c.Acquire(1) // want
		bc.n++
	} else if len(ids) == 1 {
		bc := c.Acquire(2) // want
		bc.n++
	} else {
		bc := c.Acquire(3) // want
		bc.n++
	}
	for i := 0; i < len(ids); i++ {
		bc := c.Acquire(4) // want
		bc.n++
	}
	for range ids {
		bc := c.Acquire(5) // want
		bc.n++
	}
	switch len(ids) {
	case 6:
		bc := c.Acquire(6) // want
		bc.n++
	}
	switch x.(type) {
	case int:
		bc := c.Acquire(7) // want
		bc.n++
	}
	select {
	case <-ready:
		bc := c.Acquire(8) // want
		bc.n++
	}
scan:
	for _, id := range ids {
		if id < 0 {
			continue scan
		}
		bc := c.Acquire(id) // want
		bc.n++
	}
}

// Good: a pin taken on the caller's chunk is the caller's to release (the
// insertPinned wrapper shape).
func goodPinOnParam(c *Cache, bc *BinaryChunk) {
	c.PutPinned(bc)
}

// Bad: a pin taken on a chunk built here must be released here.
func badPinOnLocal(c *Cache, id int) {
	bc := build(id)
	c.PutPinned(bc) // want
	bc.n++
}

// Good: released through the chunk's own field.
func goodPinOnLocal(c *Cache, id int) {
	bc := build(id)
	c.PutPinned(bc)
	_ = c.Unpin(bc.ID)
}

// Good: a pin whose call reports failure — the error branch holds nothing.
func goodPinWithError(c *Cache, id int) error {
	bc := build(id)
	err := c.PutPinned(bc)
	if err != nil {
		return err
	}
	return c.Unpin(bc.ID)
}

// Good: nothing to track when the pin call has no chunk to name.
func goodUnnamedPins(c *Cache) {
	c.PutPinned()
	c.PutPinned(&BinaryChunk{})
	_ = c.insertPinned(&BinaryChunk{})
}

// Good: acquires that are not bound by a plain single assignment are not
// tracked — a blank target, a pair of calls, a call that is not an acquire.
func goodUntracked(c *Cache, id int) {
	_ = c.Acquire(id)
	a, b := c.Acquire(id), c.Acquire(id+1)
	n := a.n + b.n
	m := size(n)
	_ = m
}

// Bad: a target with no variable at its root is tracked by its text; only a
// release can settle it.
func badRootlessTarget(c *Cache, id, other int) {
	slot(id).bc = c.Acquire(id)
	_ = c.Unpin(id)
	slot(other).bc = c.Acquire(other) // want
	note(other)
}

// Bad: a field is a fine place to keep a pin, and it still needs releasing.
func badFieldTarget(c *Cache, it *item, id int) {
	it.bc = c.Acquire(id) // want
	it.n++
}

// Good: the if-scoped pin lives in the branch its nil test selects.
func goodIfScoped(c *Cache, id int) {
	if bc := c.Acquire(id); bc != nil {
		defer c.Unpin(id)
		bc.n++
	}
}

// Bad: the same shape with a drop inside the branch.
func badIfScopedDrop(c *Cache, id int) error {
	if bc := c.Acquire(id); bc != nil {
		if tooBig(id) {
			return errSkipped // want
		}
		_ = c.Unpin(id)
	}
	return nil
}

// Bad: an if-scoped pin nobody releases, and nothing after the if counts —
// the variable is gone.
func badIfScopedNever(c *Cache, id int) {
	if bc := c.Acquire(id); bc != nil { // want
		bc.n++
	}
	_ = c.Unpin(id)
}

// Good: assigned in the if-init and nil-tested: the pin outlives the if.
func goodIfInitNilTest(c *Cache, id int) error {
	var bc *BinaryChunk
	if bc = c.Acquire(id); bc == nil {
		return errNotFound
	}
	defer c.Unpin(id)
	return use(bc)
}

// Good: an if-init acquire under another condition is released in the body
// or after it.
func goodIfInitOtherCond(c *Cache, id int) {
	var bc *BinaryChunk
	var ok bool
	if bc, ok = c.AcquireOldestUnloaded(); ok {
		bc.n++
	}
	_ = c.Unpin(bc.ID)
}

// ── what each following statement means ────────────────────────────────

// Bad: a return straight after the acquire.
func badStraightReturn(c *Cache, id int) error {
	bc := c.Acquire(id)
	bc.n++
	defer note(id)
	return errSkipped // want
}

// Bad: loop exits straight after the acquire.
func badStraightBranches(c *Cache, ids []int) {
	for _, id := range ids {
		bc := c.Acquire(id)
		bc.n++
		continue // want
	}
	for _, id := range ids {
		bc := c.Acquire(id)
		bc.n++
		break // want
	}
}

// Bad: a break out of the loop the pin was taken in.
func badBreakInBranch(c *Cache, ids []int, wake chan int) {
	for _, id := range ids {
		bc := c.Acquire(id)
		bc.n++
		<-wake
		if tooBig(id) {
			break // want
		}
		_ = c.Unpin(id)
	}
}

// Good: a later loop that neither releases nor returns is irrelevant, breaks
// and continues included.
func goodIdleLoop(c *Cache, id int, ids []int) {
	bc := c.Acquire(id)
	bc.n++
	for _, other := range ids {
		if other == id {
			break
		}
		continue
	}
	_ = c.Unpin(id)
}

// Good: fallthrough neither exits nor releases; the release after the switch
// is reached.
func goodFallthrough(c *Cache, id int) {
	var bc *BinaryChunk
	switch id {
	case 0:
		bc = c.Acquire(id)
		fallthrough
	default:
		note(id)
	}
	_ = c.Unpin(bc.ID)
}

// Good: a release in the if-init or in the condition runs on every path.
func goodReleaseInIfHeader(c *Cache, id, other int) error {
	bc := c.Acquire(id)
	bc.n++
	if err := c.Unpin(id); err != nil {
		return err
	}
	bc2 := c.Acquire(other)
	bc2.n++
	if c.Unpin(other) != nil {
		return errSkipped
	}
	return nil
}

// Good: an if-init that hands the chunk on transfers it on every path.
func goodTransferInIfInit(c *Cache, id int) error {
	bc := c.Acquire(id)
	if err := deliver(bc); err != nil {
		return err
	}
	return nil
}

// Good: nil guards — the pin exists on one side only.
func goodNilGuards(c *Cache, id, other int) {
	bc := c.Acquire(id)
	if bc != nil {
		_ = c.Unpin(id)
	}
	bc2 := c.Acquire(other)
	if bc2 == nil {
		note(id)
	} else {
		_ = c.Unpin(other)
	}
}

// Bad: the live side of a nil guard exits without releasing.
func badNilGuardDrop(c *Cache, id int) error {
	bc := c.Acquire(id)
	if bc != nil {
		return errSkipped // want
	}
	return nil
}

// Bad: a nil guard whose live side does nothing settles nothing.
func badNilGuardIdle(c *Cache, id int) {
	bc := c.Acquire(id) // want
	if bc != nil {
		note(id)
	}
}

// Good: a nil guard on the holder of the pin guards the pin.
func goodHolderGuard(c *Cache, it *item, id int) {
	it.bc = c.Acquire(id)
	if it != nil {
		_ = c.Unpin(id)
	}
}

// Good: every arm of an if/else chain, of a select and of a switch with a
// default releases.
func goodExhaustive(c *Cache, id, other int, a, b chan int) {
	bc := c.Acquire(id)
	bc.n++
	if id > 2 {
		_ = c.Unpin(id)
	} else if id > 1 {
		_ = c.Unpin(id)
	} else {
		_ = c.Unpin(id)
	}
	bc2 := c.Acquire(other)
	bc2.n++
	select {
	case <-a:
		_ = c.Unpin(other)
	case <-b:
		_ = c.Unpin(other)
	}
}

// Bad: an if with no else, a switch (its cases are never taken as
// exhaustive) and a type switch release on some paths only.
func badPartial(c *Cache, id, id2, id3 int, x interface{}) {
	bc := c.Acquire(id)
	bc.n++
	if id > 2 { // want
		_ = c.Unpin(id)
	}
	bc2 := c.Acquire(id2)
	bc2.n++
	switch id2 { // want
	case 0:
		_ = c.Unpin(id2)
	default:
		_ = c.Unpin(id2)
	}
	bc3 := c.Acquire(id3)
	bc3.n++
	switch x.(type) { // want
	case int:
		_ = c.Unpin(id3)
	}
}

// Bad: a release inside a loop may run zero times.
func badReleaseInLoop(c *Cache, id int, ids []int) {
	bc := c.Acquire(id)
	bc.n++
	for range ids { // want
		_ = c.Unpin(id)
	}
}

// Good: a partial release is settled by a later unconditional one.
func goodPartialThenRelease(c *Cache, id int) {
	bc := c.Acquire(id)
	bc.n++
	if id > 2 {
		note(id)
		_ = c.Unpin(id)
		return
	}
	_ = c.Unpin(id)
}

// Bad: drops inside a switch case, a select case and a labelled block.
func badDropsInArms(c *Cache, id, id2, id3 int, a chan int) error {
	bc := c.Acquire(id)
	bc.n++
	switch id {
	case 0:
		return errSkipped // want
	}
	bc2 := c.Acquire(id2)
	bc2.n++
	select {
	case <-a:
		return errSkipped // want
	default:
	}
	bc3 := c.Acquire(id3)
	bc3.n++
	{
		if id3 > 0 {
			return errSkipped // want
		}
	}
	_ = c.Unpin(id)
	_ = c.Unpin(id2)
	_ = c.Unpin(id3)
	return nil
}

// Good: a block or a labelled statement that releases or transfers counts as
// a statement that always runs.
func goodBlocks(c *Cache, id, id3 int, out chan *BinaryChunk) {
	bc := c.Acquire(id)
	{
		bc.n++
		_ = c.Unpin(id)
	}
	bc2 := c.Acquire(id)
done:
	{
		out <- bc2
	}
	bc3 := c.Acquire(id3)
	{
		bc3.n++
	}
	defer c.Unpin(id3)
	if id < 0 {
		goto done
	}
}

// Good: a switch case guarded by the pin's own nil-ness holds nothing.
func goodNilCase(c *Cache, id int) error {
	bc := c.Acquire(id)
	switch {
	case bc == nil:
		return errNotFound
	case id > 0:
		note(id)
	}
	return c.Unpin(id)
}

// ── the error-flag exemption ───────────────────────────────────────────

// Good: the flag produced with the pin says the pin was never taken.
func goodFlagExempt(c *Cache, id int) error {
	bc, err := c.AcquireOldestUnloaded()
	if err != nil {
		return err
	}
	return c.Unpin(bc.ID)
}

// Bad: once the flag is reassigned by something else it says nothing about
// the pin.
func badFlagReassigned(c *Cache, id int) error {
	bc, err := c.AcquireOldestUnloaded()
	err = verify(id)
	if err != nil {
		return err // want
	}
	return c.Unpin(bc.ID)
}

// Good: a reassignment that produces the pin again keeps the flag tied to it.
func goodFlagRetried(c *Cache, id int) error {
	bc, err := c.AcquireOldestUnloaded()
	bc, err = c.retry(id)
	if err != nil {
		return err
	}
	return c.Unpin(bc.ID)
}

// Good: the flag tested beside a value computed in the if's own init is
// still the acquire's flag.
func goodFlagWithInit(c *Cache, id int) error {
	bc, ok := c.AcquireOldestUnloaded()
	if n := count(id); !ok && n > 0 {
		return errNotFound
	}
	return c.Unpin(bc.ID)
}

// Good: the flag of an if-scoped acquire, tested inside the body.
func goodIfScopedFlag(c *Cache) error {
	if bc, err := c.AcquireOldestUnloaded(); bc != nil {
		if err != nil {
			return err
		}
		return c.Unpin(bc.ID)
	}
	return nil
}

// ── transfers ──────────────────────────────────────────────────────────

// Good: each way ownership can leave the function.
func goodTransfers(c *Cache, it *item, out chan *item, id int) *BinaryChunk {
	a := c.Acquire(id)
	go func() { deliver(a) }()
	b := c.Acquire(id + 1)
	it.bc = b
	d := c.Acquire(id + 2)
	out <- &item{bc: d}
	e := c.Acquire(id + 3)
	return e
}

// Bad: reading the chunk's fields, measuring it, and writing into it move
// nothing.
func badNotTransfers(c *Cache, id int, cols []int) {
	bc := c.Acquire(id) // want
	bc.cols = append(bc.cols, cols...)
	copy(bc.cols, cols)
	clear(bc.cols)
}

// Bad: a continue inside a switch leaves the iteration; break and continue
// inside an inner loop, and break inside a switch or select nested in a
// branch, stay within it.
func badContinueThroughSwitch(c *Cache, ids []int, done chan int) {
outer:
	for _, id := range ids {
		bc := c.Acquire(id)
		bc.n++
		if id > 7 {
			select {
			case <-done:
				break
			default:
			}
			switch id {
			case 8:
				break
			}
			switch done.(type) {
			case nil:
				break
			}
		}
		if id > 5 {
			for range ids {
				if id > 6 {
					break
				}
				continue
			}
			for i := 0; i < id; i++ {
				continue
			}
		}
		if id > 3 {
			switch id {
			case 4:
				continue outer // want
			}
		}
		_ = c.Unpin(id)
	}
}

// Bad: goto leaves whatever it is in.
func badGoto(c *Cache, id int) error {
	bc := c.Acquire(id)
	bc.n++
	if id > 0 {
		goto fail // want
	}
	return c.Unpin(id)
fail:
	return errSkipped
}

// Good: a return inside a nested literal leaves the literal only.
func goodLiteralReturn(c *Cache, id int, each func(func() bool)) {
	bc := c.Acquire(id)
	bc.n++
	if id > 0 {
		each(func() bool { return true })
	}
	_ = c.Unpin(id)
}
