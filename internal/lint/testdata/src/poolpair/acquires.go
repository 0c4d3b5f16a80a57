package fixture

// Acquires behind the exported pool entry points: the chunk package's own
// getVector, a tokenizer's positional map, the engine's float widening,
// whose slice lives in a pooled scratch vector, and Widen, whose scratch is
// its second result.

// Bad: a vector from the unexported entry point, dropped by the size check.
func badInnerVectorDrop(n int) (*Vector, error) {
	v := getVector(Str, n, false)
	if n > maxRows {
		return nil, errShortRow // want
	}
	return v, nil
}

// Bad: the tokenizer's positional map, dropped when no column is wanted.
func badTokenizeDrop(tk *Tokenizer, tc *TextChunk, cols int) error {
	pm, err := tk.Tokenize(tc, cols)
	if err != nil {
		return err
	}
	if cols == 0 {
		return errShortRow // want
	}
	PutPositionalMap(pm)
	return nil
}

// Bad: the widened floats' scratch vector, asFloats' second result, dropped
// before anything reads them.
func badWidenDrop(v *Vector, n int) (float64, error) {
	f, scratch := asFloats(v)
	if n < 0 {
		return 0, errNegative // want
	}
	s := total(f)
	PutVector(scratch)
	return s, nil
}

// Bad: a narrow vector's widened copy is the second result of Widen; the
// early return drops it.
func badWidenScratchDrop(v *Vector, n int) (int64, error) {
	ints, wide := Widen(v)
	if n < 0 {
		return 0, errNegative // want
	}
	s := sumInts(ints)
	PutVector(wide)
	return s, nil
}

// Good: the deferred release covers every exit, and the values slice is
// not the resource.
func goodWidenScratch(v *Vector, n int) (int64, error) {
	ints, wide := Widen(v)
	defer PutVector(wide)
	if n < 0 {
		return 0, errNegative
	}
	return sumInts(ints), nil
}
