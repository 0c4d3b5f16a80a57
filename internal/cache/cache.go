// Package cache implements the binary chunks cache at the heart of the
// SCANRAW operator (paper §3.1, "Caching"). The cache holds converted
// binary chunks across queries; eviction is LRU **biased toward chunks
// already loaded inside the database** — a chunk that also exists in binary
// format on disk is cheaper to lose than one that would have to be
// re-tokenized and re-parsed from the raw file.
//
// Entries can be pinned while the execution engine still needs them;
// pinned entries are never evicted. The cache also answers the speculative
// WRITE thread's central query: the *oldest* cached chunk that has not yet
// been loaded into the database (paper §4: writing the oldest unloaded
// chunk first "increases the chance to load more chunks before they are
// eliminated from the cache").
package cache

import (
	"fmt"
	"sort"
	"sync"

	"scanraw/internal/chunk"
)

type entry struct {
	bc       *chunk.BinaryChunk
	loaded   bool   // chunk (its cached columns) is stored in the database
	pins     int    // > 0 while the execution engine holds the chunk
	lastUse  uint64 // LRU clock
	inserted uint64 // insertion clock, for AcquireOldestUnloaded
}

// Cache is a bounded, thread-safe chunk cache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	clock   uint64
	entries map[int]*entry
}

// New creates a cache holding at most capacity chunks.
func New(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{cap: capacity, entries: make(map[int]*entry)}
}

// Cap returns the capacity in chunks.
func (c *Cache) Cap() int { return c.cap }

// Len returns the number of cached chunks.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) tick() uint64 {
	c.clock++
	return c.clock
}

// Put inserts bc, evicting if necessary. It returns the evicted chunk (nil
// when nothing was evicted) together with whether that chunk had been
// loaded into the database, and ok=false when the cache is full of pinned
// entries and cannot accept the chunk. Re-inserting an existing ID merges
// columns into the cached chunk and refreshes its LRU position.
func (c *Cache) Put(bc *chunk.BinaryChunk, loaded bool) (evicted *chunk.BinaryChunk, evictedLoaded bool, ok bool) {
	return c.put(bc, loaded, 0)
}

// PutPinned is Put with the entry created already holding one pin, so the
// chunk cannot be evicted between insertion and its delivery to the
// execution engine. When the insert merges into an existing entry, that
// entry gains a pin.
func (c *Cache) PutPinned(bc *chunk.BinaryChunk, loaded bool) (evicted *chunk.BinaryChunk, evictedLoaded bool, ok bool) {
	return c.put(bc, loaded, 1)
}

func (c *Cache) put(bc *chunk.BinaryChunk, loaded bool, pins int) (evicted *chunk.BinaryChunk, evictedLoaded bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, exists := c.entries[bc.ID]; exists {
		// Merge any new columns copy-on-write; never lose ones we already
		// have, and never mutate a chunk a concurrent reader may hold.
		// The merged entry counts as loaded only when both sides were — a
		// conservative rule, since an unloaded side means some cached
		// column is not yet in the database.
		merged := e.bc.Clone()
		if err := merged.Merge(bc); err == nil {
			e.bc = merged
			e.loaded = e.loaded && loaded
		}
		// The pin is granted even when the merge fails: ok=true tells a
		// PutPinned caller it holds a pin it will later Unpin, so skipping
		// the increment here would underflow the entry's pin count.
		e.lastUse = c.tick()
		e.pins += pins
		return nil, false, true
	}
	if c.cap == 0 {
		return nil, false, false
	}
	if len(c.entries) >= c.cap {
		victim := c.pickVictim()
		if victim == nil {
			return nil, false, false
		}
		evicted, evictedLoaded = victim.bc, victim.loaded
		delete(c.entries, victim.bc.ID)
	}
	now := c.tick()
	c.entries[bc.ID] = &entry{bc: bc, loaded: loaded, pins: pins, lastUse: now, inserted: now}
	return evicted, evictedLoaded, true
}

// pickVictim selects the entry to evict: the least recently used *loaded*
// unpinned entry if any exists, otherwise the least recently used unpinned
// entry. Returns nil when every entry is pinned.
func (c *Cache) pickVictim() *entry {
	var bestLoaded, bestAny *entry
	for _, e := range c.entries {
		if e.pins > 0 {
			continue
		}
		if bestAny == nil || e.lastUse < bestAny.lastUse {
			bestAny = e
		}
		if e.loaded && (bestLoaded == nil || e.lastUse < bestLoaded.lastUse) {
			bestLoaded = e
		}
	}
	if bestLoaded != nil {
		return bestLoaded
	}
	return bestAny
}

// Peek returns the cached chunk without touching LRU state.
func (c *Cache) Peek(id int) *chunk.BinaryChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e.bc
	}
	return nil
}

// Acquire returns the cached chunk with one pin already taken, atomically,
// so the caller can use the chunk without racing an eviction (and the
// vector recycling that may follow it). The caller must Unpin the ID when
// done. Returns nil when the chunk is absent.
func (c *Cache) Acquire(id int) *chunk.BinaryChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil
	}
	e.pins++
	e.lastUse = c.tick()
	return e.bc
}

// Unpin releases one pin. Unpinning a chunk that is absent or unpinned is
// an error — it indicates a pipeline accounting bug.
func (c *Cache) Unpin(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		invariantViolation("cache: unpin of absent chunk %d", id)
		return fmt.Errorf("cache: unpin of absent chunk %d", id)
	}
	if e.pins == 0 {
		invariantViolation("cache: unpin of unpinned chunk %d", id)
		return fmt.Errorf("cache: unpin of unpinned chunk %d", id)
	}
	e.pins--
	return nil
}

// Stats is a point-in-time snapshot of cache occupancy and pin accounting.
// A pin count that climbs without bound across queries is the signature of
// a leaked pin: some consumer acquired a chunk and never released it, and
// the affected entries can never be evicted again.
type Stats struct {
	Entries       int // cached chunks
	Capacity      int // maximum chunks
	PinnedEntries int // chunks with at least one pin
	PinCount      int // total outstanding pins
}

// Stats returns current occupancy and pin accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Entries: len(c.entries), Capacity: c.cap}
	for _, e := range c.entries {
		if e.pins > 0 {
			s.PinnedEntries++
			s.PinCount += e.pins
		}
	}
	return s
}

// MarkLoaded records that the chunk's cached columns now exist in the
// database, making it preferred for eviction. It reports whether the chunk
// was present.
func (c *Cache) MarkLoaded(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	e.loaded = true
	return true
}

// IsLoaded reports whether the cached chunk is marked loaded. Absent
// chunks report false.
func (c *Cache) IsLoaded(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	return ok && e.loaded
}

// AcquireOldestUnloaded returns the cached chunk that was inserted earliest
// among those not yet loaded into the database — the chunk speculative
// loading writes next (paper §4) — or nil when every cached chunk is loaded.
// The chunk is pinned atomically, protecting the speculative WRITE thread's
// reference from a concurrent eviction; the caller must Unpin its ID.
func (c *Cache) AcquireOldestUnloaded() *chunk.BinaryChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, e := range c.entries {
		if e.loaded {
			continue
		}
		if best == nil || e.inserted < best.inserted {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	best.pins++
	return best.bc
}

// UnloadedIDs returns the IDs of all cached chunks not yet loaded, oldest
// first. The safeguard mechanism flushes exactly this set at end-of-scan.
func (c *Cache) UnloadedIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	type pair struct {
		id  int
		ins uint64
	}
	var ps []pair
	for id, e := range c.entries {
		if !e.loaded {
			ps = append(ps, pair{id, e.inserted})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ins < ps[j].ins })
	ids := make([]int, len(ps))
	for i, p := range ps {
		ids[i] = p.id
	}
	return ids
}

// IDs returns all cached chunk IDs in ascending order.
func (c *Cache) IDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Clear drops every unpinned entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.entries {
		if e.pins == 0 {
			delete(c.entries, id)
		}
	}
}
