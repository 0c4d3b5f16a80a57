package fixture

import "sync"

// Witnesses for lock identity (type-qualified names, field aliases, the
// fallbacks when a type does not resolve), region ends, call resolution and
// the direct channel-operation rule.

type registry struct {
	mu     sync.Mutex
	ckptMu sync.RWMutex
	tabs   []*table
}

type table struct {
	mu   sync.Mutex
	ckpt *sync.RWMutex
}

type wake struct {
	mu sync.Mutex
	ch chan int
}

type quiet struct{ n int }

type lockSet map[string]*sync.Mutex

// open aliases the table's ckpt to the registry's ckptMu in a composite
// literal, among entries that alias nothing.
func (r *registry) open(names []string) *table {
	_ = []string{"a", "b"}
	_ = quiet{1}
	_ = lockSet{"reg": &r.mu}
	_ = sync.Map{}
	t := &table{ckpt: &r.ckptMu}
	r.tabs = append(r.tabs, t)
	return t
}

// adopt aliases by assignment; a self-alias and a non-address value record
// nothing.
func (r *registry) adopt(t *table, n *int) {
	t.ckpt, *n = &r.ckptMu, 0
	t.ckpt = t.ckpt
	t.ckpt, r.tabs = r.split()
}

// Bad half of a cycle seen only through the alias: the table's ckpt is the
// registry's ckptMu, held (shared) while the table's own lock is taken.
func (t *table) ckptThenMu() {
	t.ckpt.RLock()
	defer t.ckpt.RUnlock()
	t.mu.Lock() // want
	t.mu.Unlock()
}

// Bad other half, spelled through the registry.
func (r *registry) muThenCkpt(t *table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.ckptMu.Lock() // want
	r.ckptMu.Unlock()
}

// Good: the read lock is released before the table lock is taken — the
// section ends at the first matching unlock.
func (t *table) goodEarlyRUnlock() {
	note("before")
	t.ckpt.RLock()
	n := len("x")
	t.ckpt.RUnlock()
	note("between")
	t.mu.Lock()
	t.mu.Unlock()
	_ = n
}

func (t *table) touch() {
	t.mu.Lock()
	t.mu.Unlock()
}

func (q *quiet) touch() { q.n++ }

// tableThenRegistry fixes the order table.mu → registry.mu.
func (t *table) tableThenRegistry(r *registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}

// Good: q resolves to *quiet, so the call reaches quiet.touch and not
// table.touch — matching by name alone would close a cycle here.
func (r *registry) goodExactMethod(q *quiet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q.touch()
}

// Good: two tables' locks are one node; re-acquisition is not an ordering,
// and one node held twice is still one lock for the channel rule.
func goodSameNode(a, b *table, ch chan int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	ch <- 1
}

// Bad: channel operations written directly under two locks.
func (r *registry) badChanOpsUnderBoth(w *wake, done chan struct{}) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ch <- 1 // want
	select {  // want
	case <-done:
	default:
	}
	return <-w.ch // want
}

// Good: the same operations under one lock are locksend's business.
func (w *wake) goodOneLock() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ch <- 1
}

// Good: calls with no name to resolve (a function value), builtins and a
// lock reached through a call result add nothing to the graph.
func (r *registry) goodUnresolvable(fns []func(), pick func() *sync.Mutex) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fns[0]()
	_ = len(r.tabs)
	pick().Lock()
	pick().Unlock()
}

// Good: the holder is found through parentheses, dereferences, indexing and
// type assertions; consistent order, no finding.
func goodHolderShapes(r *registry, x interface{}) {
	(*r).mu.Lock()
	defer (*r).mu.Unlock()
	r.tabs[0].mu.Lock()
	defer r.tabs[0].mu.Unlock()
	x.(*wake).mu.Lock()
	x.(*wake).mu.Unlock()
}

type diamond struct{ z, p, q, r, s sync.Mutex }

// Good: an acyclic graph in which one lock is reachable along two paths is
// searched without revisiting it.
func (d *diamond) zp() { d.z.Lock(); d.p.Lock(); d.p.Unlock(); d.z.Unlock() }
func (d *diamond) pq() { d.p.Lock(); d.q.Lock(); d.q.Unlock(); d.p.Unlock() }
func (d *diamond) pr() { d.p.Lock(); d.r.Lock(); d.r.Unlock(); d.p.Unlock() }
func (d *diamond) qs() { d.q.Lock(); d.s.Lock(); d.s.Unlock(); d.q.Unlock() }
func (d *diamond) rs() { d.r.Lock(); d.s.Lock(); d.s.Unlock(); d.r.Unlock() }

var globalMu sync.Mutex

// Good: a package-level lock, a lock in an anonymous struct and a lock whose
// holder does not resolve each fall back to the expression text; consistent
// order, no finding.
func goodFallbackNames() {
	var local struct{ mu sync.Mutex }
	globalMu.Lock()
	defer globalMu.Unlock()
	local.mu.Lock()
	defer local.mu.Unlock()
	imported.mu.Lock()
	imported.mu.Unlock()
}

type pool[K comparable] struct {
	mu sync.Mutex
	w  *wake
}

type pair[K, V any] struct{ mu sync.Mutex }

// Good: generic receivers name their type without the parameters.
func (p *pool[K]) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.w.mu.Lock()
	p.w.mu.Unlock()
}

func (p *pair[K, V]) reset() {
	p.mu.Lock()
	p.mu.Unlock()
}

// halfOpener locks and returns something that is not the unlock: not an
// opener, so deferring its result opens no region.
func (w *wake) halfOpener() func() {
	w.mu.Lock()
	w.mu.Unlock()
	return func() {}
}

// Good: no region from a non-opener, so the send is under one lock only.
func (r *registry) goodNotAnOpener(w *wake) {
	defer w.halfOpener()()
	r.mu.Lock()
	defer r.mu.Unlock()
	w.ch <- 1
}

// Good: a literal's locks are the literal's: spawning it under a lock is
// not an acquisition in the spawner.
func (r *registry) goodLiteralLocks(w *wake) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.ch <- 1
	}()
}
