package fixture

// Mirrors the RecSegment arm of store.DecodeRecord and its consumer, the
// dbstore page read: a group's offset and length come from log bytes and
// size the buffer ReadAt fills.

// Bad: the group's length, decoded raw, sizes the read buffer.
func badSegmentRange(d *wire.Dec, read func([]byte, int64)) []byte {
	off := d.Uvar()
	n := d.Uvar()
	buf := make([]byte, n) // want
	read(buf, int64(off))
	return buf
}

// Good: what DecodeRecord does — both through Count, bounded by
// maxSegmentLen, so no record can ask a reader for more.
func goodSegmentRange(d *wire.Dec, read func([]byte, int64)) []byte {
	off := d.Count(maxSegmentLen, "group offset")
	n := d.Count(maxSegmentLen, "group length")
	buf := make([]byte, n)
	read(buf, int64(off))
	return buf
}
