//go:build !invariants

package scanraw

// Production build: the driver's in-flight accounting compiles away. The
// invariants build (see invariants_on.go) turns it into a panic.
const invariantsOn = false
