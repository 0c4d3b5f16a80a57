//go:build invariants

package scanraw

// Invariants build: the scan driver asserts its in-flight bound (see
// run.walk) and panics at the step that exceeds it.
const invariantsOn = true
