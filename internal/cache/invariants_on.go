//go:build invariants

package cache

import "fmt"

const invariantsOn = true

// Invariants build: pin-accounting violations, and an insert that leaves
// unpinned entries over the byte budget, panic at the exact site of the bug instead of surfacing later as an error some caller may swallow.
// The race detector cannot catch these — the accounting is perfectly
// synchronized, just wrong — so `go test -tags invariants` is the runtime
// complement to the pinbalance static analyzer.
func invariantViolation(format string, args ...any) {
	panic("invariant violation: " + fmt.Sprintf(format, args...))
}
