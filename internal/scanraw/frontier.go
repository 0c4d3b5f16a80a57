package scanraw

import "sort"

// Frontier turns values that arrive under out-of-order positions into a
// stream in position order: a value is held until every position before it
// has been released. It is the one reorder buffer behind the three places a
// scan's consumers need a contiguous prefix — the LIMIT proof (limitTracker),
// streamed rows (the server's row emitter) and the sample-order window of
// online aggregation (ola.Runner). It is not safe for concurrent use: the
// caller holds its own lock around Put and Drain, and yield runs under it, so
// yield must not call back into the Frontier.
type Frontier[T any] struct {
	next int       // lowest position not yet released
	held map[int]T // values at positions beyond next
}

// NewFrontier returns a frontier whose first position is start; lower
// positions never arrive (a shard's chunk range starts above zero).
func NewFrontier[T any](start int) *Frontier[T] {
	return &Frontier[T]{next: start, held: make(map[int]T)}
}

// Next returns the lowest position not yet released.
func (f *Frontier[T]) Next() int { return f.next }

// Put offers v at pos and yields, in position order, every value that has
// become contiguous with the released prefix. A position already released or
// already held is ignored, so a caller consulted twice about the same
// position (shared scans do that with skip decisions) need not remember.
func (f *Frontier[T]) Put(pos int, v T, yield func(pos int, v T)) {
	if pos != f.next {
		if _, dup := f.held[pos]; pos > f.next && !dup {
			f.held[pos] = v
		}
		return
	}
	for ok := true; ok; {
		yield(f.next, v)
		f.next++
		if v, ok = f.held[f.next]; ok {
			delete(f.held, f.next)
		}
	}
}

// Drain yields the held values in position order although positions before
// them never arrived (a cancelled scan leaves such gaps), and moves the
// frontier past them.
func (f *Frontier[T]) Drain(yield func(pos int, v T)) {
	ps := make([]int, 0, len(f.held))
	for pos := range f.held {
		ps = append(ps, pos)
	}
	sort.Ints(ps)
	for _, pos := range ps {
		yield(pos, f.held[pos])
		delete(f.held, pos)
		f.next = pos + 1
	}
}
