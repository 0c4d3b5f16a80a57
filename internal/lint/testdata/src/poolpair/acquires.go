package fixture

// Acquires behind the exported pool entry points: the chunk package's own
// getVector, a tokenizer's positional map, and the engine's float widening,
// whose slice lives in a pooled scratch vector.

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

// Bad: the widened floats, dropped before anything reads them.
func badWidenDrop(v *Vector, n int) (float64, error) {
	f, scratch := asFloats(v)
	defer PutVector(scratch)
	if n < 0 {
		return 0, errNegative // want
	}
	return total(f), nil
}
