// Package cache implements the binary chunks cache at the heart of the
// SCANRAW operator (paper §3.1, "Caching"). The cache holds converted
// binary chunks across queries; eviction is LRU **biased toward chunks
// already loaded inside the database** — a chunk that also exists in binary
// format on disk is cheaper to lose than one that would have to be
// re-tokenized and re-parsed from the raw file.
//
// The budget is bytes. New(n) holds n full-width chunks at 8 bytes a value
// (a chunk's rows × its schema's columns × 8, for the widest chunk offered
// so far), and an entry is charged what its columns hold (Vector.Size): a
// full-width int64 chunk costs one n-th of the budget, a chunk decoded from
// int32 pages half that, a chunk holding some of its columns only those,
// and a chunk with string columns (a 16-byte header a value plus its bytes)
// possibly more than one n-th. So the columns a workload reads, not the
// chunks it touches, fill the cache.
//
// Entries can be pinned while the execution engine still needs them;
// pinned entries are never evicted, and they are the only way the cache
// goes over its budget. The cache also answers the speculative WRITE
// thread's central query: the *oldest* cached chunk that has not yet been
// loaded into the database (paper §4: writing the oldest unloaded chunk
// first "increases the chance to load more chunks before they are
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
	charge   int64  // bytes of bc's columns (chunk.BinaryChunk.Size)
	loaded   bool   // chunk (its cached columns) is stored in the database
	pending  bool   // its columns are encoded into a write not yet committed
	pins     int    // > 0 while the execution engine holds the chunk
	lastUse  uint64 // LRU clock
	inserted uint64 // insertion clock, for AcquireOldestUnloaded
}

// Cache is a bounded, thread-safe chunk cache.
type Cache struct {
	mu      sync.Mutex
	cap     int   // full-width chunks the budget holds
	unit    int64 // bytes of one full-width chunk: the widest offered so far
	bytes   int64 // the entries' charges summed
	clock   uint64
	entries map[int]*entry
}

// New creates a cache whose budget is capacity full-width chunks at 8 bytes
// a value.
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

func (c *Cache) budget() int64 { return int64(c.cap) * c.unit }

// Victim is a chunk an insert evicted: the caller now owns its vectors.
// Stored reports whether losing it costs no write: it had been loaded into
// the database, or its write is pending (MarkPending).
type Victim struct {
	Chunk  *chunk.BinaryChunk
	Stored bool
}

// Put inserts bc, evicting unpinned entries until the cache's bytes fit its
// budget again, and returns them, in the order evicted. It reports ok=false,
// evicting nothing, when bc is a new chunk and capacity chunks are pinned —
// the one case the cache refuses an insert; if the pinned entries alone
// exceed the budget it is inserted over it. Re-inserting an existing ID
// merges columns into the cached chunk and refreshes its LRU position; an
// entry that grows evicts others, never itself.
func (c *Cache) Put(bc *chunk.BinaryChunk, loaded bool) (evicted []Victim, ok bool) {
	return c.put(bc, loaded, 0)
}

// PutPinned is Put with the entry created already holding one pin, so the
// chunk cannot be evicted between insertion and its delivery to the
// execution engine. When the insert merges into an existing entry, that
// entry gains a pin.
func (c *Cache) PutPinned(bc *chunk.BinaryChunk, loaded bool) (evicted []Victim, ok bool) {
	return c.put(bc, loaded, 1)
}

func (c *Cache) put(bc *chunk.BinaryChunk, loaded bool, pins int) (evicted []Victim, ok bool) {
	size := bc.Size()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unit = max(c.unit, 8*int64(bc.Rows)*int64(bc.Schema().NumColumns()))
	if e, exists := c.entries[bc.ID]; exists {
		// Merge any new columns copy-on-write; never lose ones we already
		// have, and never mutate a chunk a concurrent reader may hold.
		// The merged entry counts as loaded only when both sides were — a
		// conservative rule, since an unloaded side means some cached
		// column is not yet in the database.
		merged := e.bc.Clone()
		if err := merged.Merge(bc); err == nil {
			grown := size
			for i := range bc.Schema().NumColumns() {
				if v := bc.Column(i); v != nil && e.bc.Has(i) {
					grown -= v.Size() // a duplicate the merge drops
				}
			}
			e.bc, e.charge = merged, e.charge+grown
			c.bytes += grown
			e.loaded = e.loaded && loaded
		}
		// The pin is granted even when the merge fails: ok=true tells a
		// PutPinned caller it holds a pin it will later Unpin, so skipping
		// the increment here would underflow the entry's pin count.
		e.lastUse = c.tick()
		e.pins += pins
		return c.evict(e), true
	}
	if c.cap == 0 || c.pinnedEntries() >= c.cap {
		return nil, false
	}
	now := c.tick()
	e := &entry{bc: bc, charge: size, loaded: loaded, pins: pins, lastUse: now, inserted: now}
	c.entries[bc.ID] = e
	c.bytes += size
	return c.evict(e), true
}

// evict removes unpinned entries other than put, the entry just inserted or
// merged into, in pickVictim's order, until the cache's bytes fit the budget
// or no candidate is left.
func (c *Cache) evict(put *entry) []Victim {
	var out []Victim
	for c.bytes > c.budget() {
		v := c.pickVictim(put)
		if v == nil {
			break
		}
		out = append(out, Victim{Chunk: v.bc, Stored: v.stored()})
		delete(c.entries, v.bc.ID)
		c.bytes -= v.charge
	}
	c.checkBudget(put)
	return out
}

func (c *Cache) pinnedEntries() int {
	n := 0
	for _, e := range c.entries {
		if e.pins > 0 {
			n++
		}
	}
	return n
}

// checkBudget asserts, in the invariants build, what an insert leaves
// behind: the unpinned entries fit the budget, unless the entry just put is
// the only unpinned one — an insert never evicts what it put.
func (c *Cache) checkBudget(put *entry) {
	if !invariantsOn {
		return
	}
	var loose int64
	others := false
	for _, e := range c.entries {
		if e.pins == 0 {
			loose += e.charge
			others = others || e != put
		}
	}
	if loose > c.budget() && others {
		invariantViolation("cache: %d unpinned bytes over a budget of %d", loose, c.budget())
	}
}

// stored reports whether losing the entry costs no write: the chunk is
// loaded, or its write is pending and will land without the vectors.
func (e *entry) stored() bool { return e.loaded || e.pending }

// pickVictim selects the entry to evict: the least recently used *stored*
// (loaded or pending) unpinned entry if any exists, otherwise the least
// recently used unpinned entry, never keep. Returns nil when there is none.
func (c *Cache) pickVictim(keep *entry) *entry {
	var bestLoaded, bestAny *entry
	for _, e := range c.entries {
		if e.pins > 0 || e == keep {
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
	Entries       int   // cached chunks
	Bytes         int64 // what their columns hold (see New)
	CapacityBytes int64 // the budget: 0 until the first chunk is offered
	PinnedEntries int   // chunks with at least one pin
	PinCount      int   // total outstanding pins
}

// Stats returns current occupancy and pin accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Entries: len(c.entries), Bytes: c.bytes, CapacityBytes: c.budget()}
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
			c.bytes -= e.charge
		}
	}
}
