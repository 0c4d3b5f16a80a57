//go:build !invariants

package chunk

// Production build: pool bookkeeping compiles away entirely — the hot
// acquire/release paths must not pay for a map lookup per chunk. The
// invariants build (see invariants_on.go) adds double-recycle detection,
// outstanding-buffer counters and the dictionary-code check.
func noteGetVector(*Vector)               {}
func notePutVector(*Vector)               {}
func noteGetPositionalMap(*PositionalMap) {}
func notePutPositionalMap(*PositionalMap) {}
func checkCodes(*Vector)                  {}
