package fixture

// Witnesses for the inconsistent-release pass (phase B): which releases
// anchor a region, where the region starts and ends, and which early exits
// inside it are exempt.

// Good: a deferred release covers every exit, directly or from a closure.
func goodDeferred(v *Vector, n int) error {
	defer PutVector(v)
	if n < 0 {
		return errNegative
	}
	fill(v, n)
	return nil
}

func goodDeferredClosure(v *Vector, n int) error {
	defer func() {
		PutVector(v)
	}()
	if n < 0 {
		return errNegative
	}
	return nil
}

// Bad: a release inside a spawned literal is a release, but not a deferred
// one — the guard before the spawn still drops the buffer.
func badSpawnedRelease(v *Vector, n int) error {
	if n < 0 {
		return errNegative // want
	}
	go func() {
		fill(v, n)
		PutVector(v)
	}()
	return nil
}

// Good: a release whose argument names no variable anchors nothing.
func goodUnrootedRelease(k *Kernel, n int) error {
	if n < 0 {
		return errNegative
	}
	PutVector(k.scratch())
	return nil
}

// Good: exits before the buffer is bound are not in the region, even when a
// compound statement before the binding mentions the name in a closure.
func goodExitBeforeBinding(n int, each func(func(*Vector))) error {
	if n < 0 {
		each(func(v *Vector) { fill(v, n) })
		return errNegative
	}
	v := newScratch(n)
	fill(v, n)
	PutVector(v)
	return nil
}

// Good: exits after the last release or transfer are not in the region.
func goodExitAfterRelease(v *Vector, n int) error {
	fill(v, n)
	PutVector(v)
	if n < 0 {
		return errNegative
	}
	return nil
}

// Bad: the region runs to the last transfer, not just the last release — a
// buffer recycled on one path and handed on at the end is owned in between.
func badExitBeforeTransfer(v *Vector, n int, out chan *Vector) error {
	if n == 0 {
		PutVector(v)
		return nil
	}
	if n < 0 {
		return errNegative // want
	}
	var keep = wrap(v)
	out <- keep.v
	return nil
}

// Good: the buffer's own nil-ness guards the exit.
func goodNilGuard(v *Vector, n int) error {
	if v == nil {
		return errNegative
	}
	fill(v, n)
	PutVector(v)
	return nil
}

// Good: the flag that came with the buffer says there is nothing to drop.
func goodFlagWithBuffer(src *Source, n int) error {
	v, ok := src.next(n)
	if !ok {
		return errShortRow
	}
	PutVector(v)
	return nil
}

// Bad: exits in a select, a switch and a type switch inside the region.
func badExitsInArms(v *Vector, n int, done chan struct{}, x interface{}) error {
	select {
	case <-done:
		return errNegative // want
	default:
	}
	switch n {
	case 0:
		return errShortRow // want
	}
	switch x.(type) {
	case nil:
		return errShortRow // want
	}
	fill(v, n)
	PutVector(v)
	return nil
}

// Bad: only the outermost exiting compound is reported.
func badNestedExits(v *Vector, n int) error {
	if n < 0 {
		if n < -1 {
			return errNegative // want
		}
		return errShortRow
	}
	fill(v, n)
	PutVector(v)
	return nil
}

// Good: a compound that does not exit is no early exit.
func goodIdleCompound(v *Vector, n int) error {
	if n < 0 {
		n = -n
	}
	fill(v, n)
	PutVector(v)
	return nil
}

// Good: a compound that releases or hands the buffer on is consistent.
func goodReleasingArms(v *Vector, n int, out chan *Vector) error {
	if n < 0 {
		PutVector(v)
		return errNegative
	}
	if n == 0 {
		out <- v
		return nil
	}
	fill(v, n)
	PutVector(v)
	return nil
}

// Bad: a buffer bound by a range clause is owned from the top of the loop.
func badRangeBound(items []*workItem, limit int) {
	for _, item := range items {
		if limit < 0 {
			continue // want
		}
		PutPositionalMap(item.pm)
	}
}

// Bad: the same through a channel's single range variable.
func badRangeKeyBound(work chan *workItem, limit int) {
	for item := range work {
		if limit < 0 {
			continue // want
		}
		PutPositionalMap(item.pm)
	}
}

// Good: phase A's finding is not repeated by phase B.
func goodNoDoubleReport(n int) error {
	v := GetVector(n)
	if n < 0 {
		return errNegative // want
	}
	fill(v, n)
	PutVector(v)
	return nil
}
