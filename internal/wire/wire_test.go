package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sample encodes one of everything; readSample reads it back and reports
// whether every value matched.
func sample() []byte {
	var e Enc
	e.U8(0xfe)
	e.Bool(true)
	e.Bool(false)
	e.Uvar(1<<63 + 5)
	e.Ivar(math.MinInt64)
	e.F64(math.Inf(-1))
	e.Str("héllo 世界")
	e.Str("")
	e.Uvar(77) // read back through Count
	e.Bytes([]byte{1, 2, 3})
	e.U8(9) // read back through Rest
	e.U8(8)
	return e.Buf
}

func readSample(d *Dec) (ok bool) {
	ok = d.U8() == 0xfe
	ok = d.U8() == 1 && ok
	ok = d.U8() == 0 && ok
	ok = d.Uvar() == 1<<63+5 && ok
	ok = d.Ivar() == math.MinInt64 && ok
	ok = math.IsInf(d.F64(), -1) && ok
	ok = d.Str() == "héllo 世界" && ok
	ok = d.Str() == "" && ok
	ok = d.Count(77, "n") == 77 && ok
	ok = bytes.Equal(d.Bytes(), []byte{1, 2, 3}) && ok
	ok = bytes.Equal(d.Rest(), []byte{9, 8}) && ok
	return ok
}

func TestRoundTrip(t *testing.T) {
	d := NewDec(sample(), "pkg", "thing")
	if !readSample(d) {
		t.Error("a value did not round-trip")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationIsStickyError cuts the payload at every offset: the decode
// must fail, never panic, and stay failed with the same error.
func TestTruncationIsStickyError(t *testing.T) {
	p := sample()
	// The final two bytes are read by Rest, which takes whatever is left.
	for cut := 0; cut < len(p)-2; cut++ {
		d := NewDec(p[:cut], "pkg", "thing")
		readSample(d)
		first := d.Err()
		if first == nil {
			t.Fatalf("cut %d of %d decoded", cut, len(p))
		}
		if !strings.HasPrefix(first.Error(), "pkg: ") {
			t.Errorf("cut %d: error %q lacks the package prefix", cut, first)
		}
		if d.U8() != 0 || d.Uvar() != 0 || d.Ivar() != 0 || d.F64() != 0 || d.Str() != "" ||
			d.Count(10, "n") != 0 || d.Bytes() != nil || d.Rest() != nil {
			t.Errorf("cut %d: a read after the failure returned a value", cut)
		}
		d.Failf("later failure")
		if d.Err() != first || d.Done() != first {
			t.Errorf("cut %d: first error did not stick", cut)
		}
	}
}

func TestCountBoundsAndZeroes(t *testing.T) {
	var e Enc
	e.Uvar(1 << 40)
	d := NewDec(e.Buf, "pkg", "thing")
	if n := d.Count(1<<30, "row count"); n != 0 {
		t.Errorf("over-limit Count returned %d, want 0", n)
	}
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "row count") {
		t.Errorf("err = %v", d.Err())
	}
	d = NewDec(e.Buf, "pkg", "thing")
	if n := d.Count(1<<40, "row count"); n != 1<<40 || d.Err() != nil {
		t.Errorf("Count at the limit = %d, %v", n, d.Err())
	}
}

func TestStrLimit(t *testing.T) {
	for _, n := range []int{MaxStr, MaxStr + 1} {
		var e Enc
		e.Str(strings.Repeat("x", n))
		d := NewDec(e.Buf, "pkg", "thing")
		s := d.Str()
		if n == MaxStr && (d.Err() != nil || len(s) != n) {
			t.Errorf("string at the limit: %v", d.Err())
		}
		if n > MaxStr && (d.Err() == nil || s != "") {
			t.Errorf("string past the limit decoded (%d bytes)", len(s))
		}
	}
	// A length prefix far beyond the payload must not be trusted either
	// way: Bytes has no fixed limit, only what is actually there.
	var e Enc
	e.Uvar(math.MaxUint64)
	if d := NewDec(e.Buf, "pkg", "thing"); d.Bytes() != nil || d.Err() == nil {
		t.Error("byte string longer than the payload decoded")
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	d := NewDec([]byte{1, 2}, "pkg", "thing")
	d.U8()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes after thing") {
		t.Errorf("Done = %v", err)
	}
}

func TestFrame(t *testing.T) {
	// The CRC-32C check value from RFC 3720 pins the polynomial.
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum = %08x, want e3069283", got)
	}
	payload := []byte("payload")
	frame := AppendFrame([]byte("prefix"), payload)
	if !bytes.HasPrefix(frame, []byte("prefix")) {
		t.Fatal("AppendFrame clobbered dst")
	}
	frame = frame[len("prefix"):]
	n, sum := ParseFrameHeader(frame)
	if n != len(payload) || sum != Checksum(payload) || !bytes.Equal(frame[FrameHeaderLen:], payload) {
		t.Errorf("frame = %x: n=%d sum=%08x", frame, n, sum)
	}
	inPlace := append(make([]byte, FrameHeaderLen), payload...)
	SealFrame(inPlace)
	if !bytes.Equal(inPlace, frame) {
		t.Errorf("SealFrame wrote %x, AppendFrame %x", inPlace, frame)
	}
	if empty := AppendFrame(nil, nil); len(empty) != FrameHeaderLen {
		t.Errorf("empty frame is %d bytes", len(empty))
	}
}

// FuzzWireDec drives a decoder over random bytes with a random sequence of
// reads. Whatever the input: no panic, Count never returns a value above
// its limit, a string never exceeds MaxStr, and once a read has failed
// every later read returns the zero value and the error does not change.
func FuzzWireDec(f *testing.F) {
	f.Add(sample(), []byte{0, 0, 0, 1, 2, 3, 4, 4, 5, 6, 7})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{5, 1, 6})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		d := NewDec(data, "fuzz", "payload")
		var first error
		for _, op := range ops {
			failed := d.Err() != nil
			zero := true
			switch op % 8 {
			case 0:
				zero = d.U8() == 0
			case 1:
				zero = d.Uvar() == 0
			case 2:
				zero = d.Ivar() == 0
			case 3:
				zero = d.F64() == 0
			case 4:
				s := d.Str()
				if len(s) > MaxStr {
					t.Fatalf("Str returned %d bytes", len(s))
				}
				zero = s == ""
			case 5:
				limit := uint64(op) << 3
				n := d.Count(limit, "n")
				if n < 0 || uint64(n) > limit {
					t.Fatalf("Count(%d) returned %d", limit, n)
				}
				zero = n == 0
			case 6:
				p := d.Bytes()
				if len(p) > len(data) {
					t.Fatalf("Bytes returned %d of a %d-byte payload", len(p), len(data))
				}
				zero = p == nil
			case 7:
				zero = d.Rest() == nil
			}
			if failed && !zero {
				t.Fatalf("op %d returned a value after the decoder failed", op%8)
			}
			if first == nil {
				first = d.Err()
			} else if d.Err() != first {
				t.Fatal("the first error was replaced")
			}
		}
		if err := d.Done(); first != nil && err != first {
			t.Fatal("Done replaced the first error")
		}
	})
}

func TestUvarLen(t *testing.T) {
	vals := []uint64{0, 1, math.MaxUint64}
	for shift := 7; shift < 64; shift += 7 { // both sides of every length step
		vals = append(vals, 1<<shift-1, 1<<shift)
	}
	for _, v := range vals {
		var e Enc
		e.Uvar(v)
		if got := UvarLen(v); got != len(e.Buf) {
			t.Errorf("UvarLen(%d) = %d, Uvar appends %d bytes", v, got, len(e.Buf))
		}
	}
}
