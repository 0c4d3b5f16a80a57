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
	pending  bool   // its columns are encoded into a write not yet committed
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
// loaded into the database — or is being, its write pending (MarkPending) —
// and ok=false when the cache is full of pinned
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
		evicted, evictedLoaded = victim.bc, victim.stored()
		delete(c.entries, victim.bc.ID)
	}
	now := c.tick()
	c.entries[bc.ID] = &entry{bc: bc, loaded: loaded, pins: pins, lastUse: now, inserted: now}
	return evicted, evictedLoaded, true
}

// stored reports whether losing the entry costs no write: the chunk is
// loaded, or its write is pending and will land without the vectors.
func (e *entry) stored() bool { return e.loaded || e.pending }

// pickVictim selects the entry to evict: the least recently used *stored*
// (loaded or pending) unpinned entry if any exists, otherwise the least
// recently used unpinned entry. Returns nil when every entry is pinned.
func (c *Cache) pickVictim() *entry {
	var bestLoaded, bestAny *entry
	for _, e := range c.entries {
		if e.pins > 0 {
			continue
		}
		if bestAny == nil || e.lastUse < bestAny.lastUse {
			bestAny = e
		}
		if e.stored() && (bestLoaded == nil || e.lastUse < bestLoaded.lastUse) {
			bestLoaded = e
		}
	}
	if bestLoaded != nil {
		return bestLoaded
	}
	return bestAny
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

// MarkPending claims the chunk's write: its cached columns are about to be
// encoded into a write that is not committed yet. Until Committed, it is
// neither loaded nor a candidate for another write (AcquireOldestUnloaded,
// UnloadedIDs), and it is evicted like a loaded chunk, without a write. It
// reports false, claiming nothing, when the entry is loaded or already
// pending — the write would store nothing or store it twice — and true for
// an absent chunk, which no other writer can hold.
func (c *Cache) MarkPending(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return true
	}
	if e.stored() {
		return false
	}
	e.pending = true
	return true
}

// Committed ends the chunk's pending write: loaded lists, by schema ordinal,
// the columns the database now holds — nil when the write failed — and the
// entry is marked loaded if they cover every column it caches; otherwise it
// is a write candidate again. An absent chunk is ignored.
func (c *Cache) Committed(id int, loaded []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return
	}
	e.pending = false
	if loaded == nil {
		return
	}
	for i, l := range loaded {
		if !l && e.bc.Has(i) {
			return
		}
	}
	e.loaded = true
}

// AcquireOldestUnloaded returns the cached chunk that was inserted earliest
// among those neither loaded into the database nor pending — the chunk
// speculative loading writes next (paper §4) — or nil when there is none.
// The chunk is pinned atomically, protecting the speculative WRITE thread's
// reference from a concurrent eviction; the caller must Unpin its ID.
func (c *Cache) AcquireOldestUnloaded() *chunk.BinaryChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, e := range c.entries {
		if e.stored() {
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

// UnloadedIDs returns the IDs of all cached chunks neither loaded nor
// pending, oldest first. The safeguard mechanism flushes exactly this set at
// end-of-scan.
func (c *Cache) UnloadedIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	type pair struct {
		id  int
		ins uint64
	}
	var ps []pair
	for id, e := range c.entries {
		if !e.stored() {
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
