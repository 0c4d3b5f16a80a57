package fixture

// Mirrors the codecs built on internal/wire: raw varint/fixed-width decodes
// (wire.Dec.Uvar/Ivar, a frame header's length) are hostile until bounded;
// wire.Dec.Count is the blessed bound-and-fail route.

// Bad: the decoded count reaches make unchecked — the 67TB class.
func badUnboundedMake(d *wire.Dec) []int {
	n := d.Uvar()
	return make([]int, n) // want
}

// Bad: conversion layers do not launder taint.
func badConvertedMake(hdr []byte) []byte {
	n := int(binary.LittleEndian.Uint32(hdr))
	return make([]byte, 0, n) // want
}

// Bad: a frame header's length is as hostile as any other decoded count.
func badFrameLength(hdr []byte) []byte {
	n, _ := wire.ParseFrameHeader(hdr)
	return make([]byte, n) // want
}

// Bad: a signed varint converted on the way to make.
func badSignedMake(d *wire.Dec) []int {
	n := int(d.Ivar())
	return make([]int, n) // want
}

// Good: a bounds check between decode and allocation clears the taint.
func goodGuardedMake(d *wire.Dec) ([]int, error) {
	n := d.Uvar()
	if n > maxCols {
		return nil, errTooBig
	}
	return make([]int, n), nil
}

// Good: min clamps at the use site.
func goodClampedMake(d *wire.Dec) []int {
	n := d.Uvar()
	return make([]int, 0, min(int(n), 64))
}

// Good: Count bounds and fails in one step.
func goodCountHelper(d *wire.Dec) []int {
	n := d.Count(maxCols, "columns")
	return make([]int, n)
}

// Good: reassignment from a trusted source clears the taint.
func goodReassigned(d *wire.Dec, buf []byte) []byte {
	n := d.Uvar()
	n = uint64(len(buf))
	return make([]byte, n)
}

// Good: a justified suppression for a count bounded by construction.
func suppressedTrustedCount(d *wire.Dec) []int {
	n := d.Uvar()
	//lint:ignore decodeguard fixture mirrors a loopback path: the producer is in-process and bounds n at encode time
	return make([]int, n)
}

//lint:ignore decodeguard this directive excuses nothing, so the driver reports it as unused // want
func unusedDirective() {}
