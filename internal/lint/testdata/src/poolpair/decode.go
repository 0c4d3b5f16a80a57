package fixture

// Bad: a decoded page vector is pooled like any other; the range check's
// error return drops it.
func badDecodeDrop(bc *BinaryChunk, col int, enc []byte) error {
	v, err := DecodeVector(enc)
	if err != nil {
		return err
	}
	if col < 0 {
		return errNegative // want
	}
	return bc.SetColumn(col, v)
}

// Good: a failed decode has nothing to hand back, the range check hands the
// vector back, and success transfers ownership to the chunk.
func goodDecodeRecycle(bc *BinaryChunk, col int, enc []byte) error {
	v, err := DecodeVector(enc)
	if err != nil {
		return err
	}
	if col < 0 {
		PutVector(v)
		return errNegative
	}
	return bc.SetColumn(col, v)
}
