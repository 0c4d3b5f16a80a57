//go:build invariants

package chunk

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Invariants build: the pools track every pointer they currently hold, so
// recycling the same vector or positional map twice panics at the second
// release. A double-recycle otherwise surfaces far away as two goroutines
// being handed the same backing storage — the race detector only sees the
// collision, never the release that caused it. Outstanding counters let
// tests assert acquire/release balance around an operation.
var (
	pooledMu   sync.Mutex
	pooledVecs = map[*Vector]bool{}
	pooledMaps = map[*PositionalMap]bool{}

	outstandingVecs atomic.Int64
	outstandingMaps atomic.Int64
)

func noteGetVector(v *Vector) {
	outstandingVecs.Add(1)
	pooledMu.Lock()
	delete(pooledVecs, v)
	pooledMu.Unlock()
}

func notePutVector(v *Vector) {
	pooledMu.Lock()
	if pooledVecs[v] {
		pooledMu.Unlock()
		panic(fmt.Sprintf("invariant violation: chunk: vector %p recycled twice", v))
	}
	pooledVecs[v] = true
	pooledMu.Unlock()
	outstandingVecs.Add(-1)
}

func noteGetPositionalMap(m *PositionalMap) {
	outstandingMaps.Add(1)
	pooledMu.Lock()
	delete(pooledMaps, m)
	pooledMu.Unlock()
}

func notePutPositionalMap(m *PositionalMap) {
	pooledMu.Lock()
	if pooledMaps[m] {
		pooledMu.Unlock()
		panic(fmt.Sprintf("invariant violation: chunk: positional map %p recycled twice", m))
	}
	pooledMaps[m] = true
	pooledMu.Unlock()
	outstandingMaps.Add(-1)
}

// checkCodes panics unless a string vector that carries a dictionary keeps
// the code invariant (codeViolation).
func checkCodes(v *Vector) {
	if msg := codeViolation(v); msg != "" {
		panic("invariant violation: chunk: " + msg)
	}
}

// checkRepr panics unless an Int64 vector holds exactly one representation,
// of rows values (reprViolation).
func checkRepr(v *Vector, rows int) {
	if msg := reprViolation(v, rows); msg != "" {
		panic("invariant violation: chunk: " + msg)
	}
}

// OutstandingVectors reports vectors acquired from the pool and not yet
// recycled. Only available in invariants builds.
func OutstandingVectors() int64 { return outstandingVecs.Load() }

// OutstandingMaps reports positional maps acquired from the pool and not
// yet recycled. Only available in invariants builds.
func OutstandingMaps() int64 { return outstandingMaps.Load() }
