package lint

import "go/ast"

// LockSend forbids channel operations inside mutex critical sections: a
// send or receive while holding a sync.Mutex/RWMutex is the deadlock shape
// this codebase is most exposed to — the goroutine that would drain the
// channel may be blocked on the same lock (the speculative scheduler and
// the cache gate). The critical section is computed positionally: from a
// x.Lock()/x.RLock() statement to the first matching x.Unlock()/x.RUnlock()
// in the same function, or to the end of the function when the unlock is
// deferred. Channel operations inside nested function literals are not
// flagged (they run later, off the lock, unless invoked inline — a case
// the runtime invariants and race tests cover instead).
var LockSend = &Analyzer{
	Name: "locksend",
	Run:  perUnit(lockSendUnit),
}

// lockSendUnit scans each critical section for channel operations. A select
// inside the section is one finding; what is inside it is covered by that.
func lockSendUnit(u *unit) []Diagnostic {
	var diags []Diagnostic
	for _, r := range u.regions {
		if r.lock == "" {
			continue
		}
		for _, op := range u.chanOps {
			if op.Pos() <= r.start || op.End() > r.end || u.inSelect(op, r.start, r.end) {
				continue
			}
			what := "channel receive while holding %s — move it outside the critical section"
			switch op.(type) {
			case *ast.SelectStmt:
				what = "select on channels while holding %s — a blocked peer waiting for the lock deadlocks here"
			case *ast.SendStmt:
				what = "channel send while holding %s — move it outside the critical section"
			}
			diags = append(diags, u.diag("locksend", op, what, r.recv))
		}
	}
	return diags
}
