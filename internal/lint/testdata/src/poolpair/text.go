package fixture

// Bad: a text buffer taken for a longer read-ahead is dropped by the bounds
// check's error return — the free list never sees it again.
func badTextDrop(o *Operator, have []byte, n int) ([]byte, error) {
	grown := o.getText(len(have) + n)
	if n > maxExtent {
		return nil, errNegative // want
	}
	return append(grown, have...), nil
}

// Bad (inconsistent release): a carved chunk's text goes back when the chunk
// lies outside the range, but the catalog error's early return drops it.
func badCarvedTextDrop(o *Operator, sc *rawScanner, id int) (*TextChunk, error) {
	data, lines, err := sc.next(o.cfg.ChunkLines)
	if err != nil {
		return nil, err
	}
	if err := o.table.EnsureChunk(id, lines); err != nil {
		return nil, err // want
	}
	if !o.wants(id) {
		o.putText(data)
		return nil, nil
	}
	return &TextChunk{ID: id, Data: data, Lines: lines}, nil
}

// Good: every path that does not pass the text on hands it back.
func goodCarvedText(o *Operator, sc *rawScanner, id int) (*TextChunk, error) {
	data, lines, err := sc.next(o.cfg.ChunkLines)
	if err != nil {
		return nil, err
	}
	if err := o.table.EnsureChunk(id, lines); err != nil {
		o.putText(data)
		return nil, err
	}
	if !o.wants(id) {
		o.putText(data)
		return nil, nil
	}
	return &TextChunk{ID: id, Data: data, Lines: lines}, nil
}
