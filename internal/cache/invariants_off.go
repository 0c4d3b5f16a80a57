//go:build !invariants

package cache

const invariantsOn = false

// Production build: violations are reported through Unpin's error return
// only. The invariants build (see invariants_on.go) turns them into panics.
func invariantViolation(string, ...any) {}
