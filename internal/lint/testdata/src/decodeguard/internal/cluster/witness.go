package fixture

// Witnesses for what taints, what clears, what counts as a guard and what
// reaches a sink.

type header struct {
	count int
	body  []byte
}

// Bad: parentheses launder nothing, at the source or at the sink.
func badParenthesised(d *wire.Dec) []int {
	n := (d.Uvar())
	return make([]int, (n)) // want
}

// Bad: a conversion at the sink launders nothing either.
func badConvertedAtSink(d *wire.Dec) []int {
	n := d.Uvar()
	return make([]int, int(n)) // want
}

// Bad: assigning something else to a field does not clear the variable.
func badFieldAssignedBetween(d *wire.Dec, h *header) []byte {
	n := d.Uvar()
	h.count = 3
	h.body = make([]byte, n) // want
	return h.body
}

// Bad: a comparison on a different variable is not a guard for this one.
func badGuardOnOther(d *wire.Dec, limit int) []int {
	n := d.Uvar()
	if limit > maxCols {
		return nil
	}
	return make([]int, n) // want
}

// Bad: an equality test bounds nothing.
func badEqualityGuard(d *wire.Dec) []int {
	n := d.Uvar()
	if n == 0 {
		return nil
	}
	return make([]int, n) // want
}

// Bad: a guard before the decode guards the old value.
func badGuardBeforeDecode(d *wire.Dec, n uint64) []int {
	if n > maxCols {
		return nil
	}
	n = d.Uvar()
	return make([]int, n) // want
}

// Good: a clamp at the source bounds the value before it has a name.
func goodClampedAtSource(d *wire.Dec) []int {
	n := min(d.Uvar(), maxCols)
	return make([]int, n)
}

// Good: a loop condition that compares the count bounds it the same way an
// if does (the decode-until-short shape).
func goodLoopBound(d *wire.Dec, have int) []byte {
	n := int(d.Uvar())
	for have < n {
		return nil
	}
	return make([]byte, n)
}

// Good: an unconditional loop between decode and sink has no condition to
// read; the guard inside it still counts.
func goodGuardInsideLoop(d *wire.Dec) []int {
	n := d.Uvar()
	for {
		if n > maxCols {
			return nil
		}
		break
	}
	return make([]int, n)
}

// Good: the allocation sized before the decode used the caller's value.
func goodSizedBeforeDecode(d *wire.Dec, n uint64) ([]int, uint64) {
	out := make([]int, n)
	n = d.Uvar()
	return out, n
}

// Good: a helper call at the sink is not a conversion; whatever it returns
// is its own responsibility.
func goodHelperAtSink(d *wire.Dec) []int {
	n := d.Uvar()
	return make([]int, clamp(n))
}

// Good: append grows by what it is given, not by a count; make without a
// size has nothing to bound.
func goodAppendAndBareMake(d *wire.Dec, out []uint64) ([]uint64, map[uint64]bool) {
	n := d.Uvar()
	seen := make(map[uint64]bool)
	return append(out, n), seen
}

// Good: only the value of a (value, width) pair is wire-controlled.
func goodWidthIsNotTainted(buf []byte) []byte {
	v, w := binary.Uvarint(buf)
	if v > maxCols {
		return nil
	}
	return make([]byte, w)
}

// Bad: a literal inside the function is its own unit — its decode and its
// sink are checked there.
func badInLiteral(d *wire.Dec) func() []int {
	return func() []int {
		n := d.Uvar()
		return make([]int, n) // want
	}
}
