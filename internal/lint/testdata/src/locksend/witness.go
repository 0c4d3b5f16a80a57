package fixture

import "sync"

// Witnesses for the lock-region and receiver-rendering heuristics: one line
// per shape the critical-section finder recognises or deliberately does not.

type shards struct {
	rw    sync.RWMutex
	locks []sync.Mutex
	q     *queue
	ch    chan int
}

func (s *shards) pick() *sync.Mutex { return &s.locks[0] }

// Bad: a read lock is still a lock.
func (s *shards) badSendUnderRLock(v int) {
	s.rw.RLock()
	s.ch <- v // want
	s.rw.RUnlock()
}

// Bad: a parenthesised method value is the same call.
func (s *shards) badParenLock(v int) {
	(s.rw.Lock)()
	s.ch <- v // want
	(s.rw.Unlock)()
}

// Bad: an indexed lock's section runs to the matching indexed unlock.
func (s *shards) badIndexedLock(i, v int) {
	s.locks[i].Lock()
	s.ch <- v // want
	s.locks[i].Unlock()
}

// Bad: a dereferenced receiver renders to the same lock.
func (s *shards) badDerefLock(v int) {
	(*s).rw.Lock()
	defer (*s).rw.Unlock()
	s.ch <- v // want
}

// Bad: the lock reached through a call result.
func (s *shards) badCallResultLock(v int) {
	s.pick().Lock()
	defer s.pick().Unlock()
	s.ch <- v // want
}

// Bad: the lock reached through a type assertion and an address-of.
func badAssertedLock(x interface{}, ch chan int) {
	(&x.(*shards).rw).Lock()
	ch <- 1 // want
	(&x.(*shards).rw).Unlock()
}

// Bad: the unlock of a different lock does not close the section.
func (s *shards) badOtherUnlock(v int) {
	s.rw.Lock()
	s.q.mu.Unlock()
	s.ch <- v // want
	s.rw.Unlock()
}

// Bad: a lock with no unlock at all is held to the end of the function.
func (s *shards) badNeverUnlocked(v int) {
	s.rw.Lock()
	s.ch <- v // want
}

// Bad: a holder that does not render leaves the field name to go by.
func badUnrenderableHolder(pending []*queue, ch chan int) {
	pending[1:][0].mu.Lock()
	ch <- 1 // want
	pending[1:][0].mu.Unlock()
}

// Good: the section closed by the first unlock; the second section opens
// after the send.
func (s *shards) goodBetweenSections(v int) {
	s.rw.Lock()
	s.rw.Unlock()
	s.ch <- v
	s.rw.Lock()
	s.rw.Unlock()
}

// Good: a bare function that happens to be called Lock guards nothing.
func goodBareLock(ch chan int) {
	Lock()
	ch <- 1
	Unlock()
}

// Good: a receive before the lock is taken.
func (s *shards) goodRecvBeforeLock() int {
	v := <-s.ch
	s.rw.Lock()
	defer s.rw.Unlock()
	return v
}
