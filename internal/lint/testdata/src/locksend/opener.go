package fixture

// enter locks and hands the critical section to the caller.
func (q *queue) enter() func() {
	q.mu.Lock()
	return q.mu.Unlock
}

// Good, as far as locksend can tell: a region opened by `defer q.enter()()`
// is in the fact table, but which functions are openers is only known to an
// analysis that sees every declaration. That is lockorder's job; locksend
// reads literal Lock calls.
func (q *queue) goodOpenerRegion(v int) {
	defer q.enter()()
	q.ch <- v
}
