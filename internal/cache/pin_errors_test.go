//go:build !invariants

package cache

import "testing"

// Under the invariants build these misuses panic instead of returning an
// error (see invariants_test.go), so the error-return contract is only
// asserted in the default build.
func TestPinErrors(t *testing.T) {
	c := New(2)
	if c.Acquire(7) != nil {
		t.Error("pinning absent chunk should fail")
	}
	if err := c.Unpin(7); err == nil {
		t.Error("unpinning absent chunk should error")
	}
	c.Put(mk(1), false)
	if err := c.Unpin(1); err == nil {
		t.Error("unpinning unpinned chunk should error")
	}
}
