// Package workload tracks which columns of a table queries actually touch.
// The tracker keeps one exponentially-decayed access counter per schema
// ordinal; the speculative loader ranks cached chunks' unloaded columns by
// these weights so idle I/O converts the columns the workload will ask for
// next, and the server persists the weights through the manifest journal so
// a restart does not forget the workload (see "Workload-Driven Vertical
// Partitioning over Raw Data", Zhao/Cheng/Rusu).
package workload

import (
	"math"
	"sync"
	"time"
)

// DefaultHalfLife is how long an access takes to decay to half weight when
// the caller does not choose one. Ten minutes keeps the tracker responsive
// to workload shifts without thrashing on a single odd query.
const DefaultHalfLife = 10 * time.Minute

// Tracker is a per-table set of decayed column-access counters. Safe for
// concurrent use.
type Tracker struct {
	mu       sync.Mutex
	weights  []float64
	halfLife time.Duration
	last     time.Time // instant weights were last decayed to
	now      func() time.Time
}

// New returns a tracker for a table with ncols schema ordinals, decaying
// with the given half-life (<= 0 selects DefaultHalfLife).
func New(ncols int, halfLife time.Duration) *Tracker {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	t := &Tracker{
		weights:  make([]float64, ncols),
		halfLife: halfLife,
		now:      time.Now,
	}
	t.last = t.now()
	return t
}

// withClock substitutes the time source; tests use it to make decay
// deterministic.
func (t *Tracker) withClock(now func() time.Time) *Tracker {
	t.now = now
	t.last = now()
	return t
}

// decayLocked folds elapsed time into the weights. Decay is lazy: weights
// only change when someone looks at or touches them, so an idle tracker
// costs nothing.
func (t *Tracker) decayLocked() {
	now := t.now()
	dt := now.Sub(t.last)
	if dt <= 0 {
		return
	}
	t.last = now
	f := math.Exp2(-float64(dt) / float64(t.halfLife))
	for i := range t.weights {
		t.weights[i] *= f
	}
}

// Record counts one access to each listed column ordinal. Out-of-range
// ordinals are ignored — the schema is the tracker's, not the caller's.
func (t *Tracker) Record(cols []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decayLocked()
	for _, c := range cols {
		if c >= 0 && c < len(t.weights) {
			t.weights[c]++
		}
	}
}

// Weights returns a copy of the current decayed weights, indexed by schema
// ordinal.
func (t *Tracker) Weights() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decayLocked()
	return append([]float64(nil), t.weights...)
}

// Total returns the sum of all current weights. Zero means the tracker is
// cold — no query has touched the table recently — and the speculation
// policy should fall back to scan order.
func (t *Tracker) Total() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decayLocked()
	sum := 0.0
	for _, w := range t.weights {
		sum += w
	}
	return sum
}

// Seed overwrites the weights with a persisted snapshot (typically the
// RecWorkload record recovered from the manifest). A snapshot of the wrong
// width is ignored.
func (t *Tracker) Seed(weights []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(weights) != len(t.weights) {
		return
	}
	t.last = t.now()
	copy(t.weights, weights)
}
