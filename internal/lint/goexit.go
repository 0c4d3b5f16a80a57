package lint

import (
	"go/ast"
	"go/token"
)

// GoExit enforces goroutine termination: every `go func() { ... }` literal must either observe a
// termination signal — a channel receive, a select, a ctx.Done() call, a
// WaitGroup Wait — or be provably finite. A goroutine that loops forever
// with no way to hear "stop" outlives its query and leaks a worker; the
// leak checker catches it at test time, this analyzer catches it at lint
// time. Named-function `go` statements are not checked (their bodies are
// analyzed when the function itself is spawned with a literal, and the
// project's long-lived stage loops all terminate by channel close).
var GoExit = &Analyzer{
	Name: "goexit",
	Run:  perUnit(goExitUnit),
}

// goExitUnit flags loops in a spawned literal that can never terminate: an
// unconditional `for { ... }` whose body has no receive, select, return,
// break, goto or panic, and conditional loops only when the whole literal
// lacks any termination signal.
func goExitUnit(u *unit) []Diagnostic {
	if !u.isGo {
		return nil
	}
	var diags []Diagnostic
	signal := u.hearsSignal(u.body)
	for _, loop := range u.fors {
		switch {
		case loop.Cond == nil && !u.canLeave(loop.Body):
			diags = append(diags, u.diag("goexit", loop,
				"goroutine loops forever with no receive, select, return or break — it can never hear a done signal"))
		case loop.Cond != nil && !signal && !u.hearsSignal(loop.Body):
			diags = append(diags, u.diag("goexit", loop,
				"goroutine loop has no termination signal — select on a done channel or ctx.Done(), or bound the loop"))
		}
	}
	return diags
}

// blocksIn reports whether a channel receive, a select, or a call to one of
// the named functions stands inside n.
func (u *unit) blocksIn(n ast.Node, calls ...string) bool {
	for _, op := range u.chanOps {
		if _, isSend := op.(*ast.SendStmt); !isSend && within(op, n) {
			return true
		}
	}
	for _, c := range u.calls {
		for _, name := range calls {
			if c.name == name && within(c.call, n) {
				return true
			}
		}
	}
	return false
}

// hearsSignal reports whether n contains something that lets the goroutine
// observe shutdown or finish naturally: a channel receive, a select,
// ctx.Done(), a WaitGroup Wait, or a range loop (which ends when its
// producer closes or its collection is exhausted).
func (u *unit) hearsSignal(n ast.Node) bool {
	for _, r := range u.ranges {
		if within(r, n) {
			return true
		}
	}
	return u.blocksIn(n, "Done", "Wait")
}

// canLeave reports whether a `for {}` body contains any construct that can
// leave the loop or block on a signal.
func (u *unit) canLeave(body *ast.BlockStmt) bool {
	for _, r := range u.returns {
		if within(r, body) {
			return true
		}
	}
	for _, b := range u.branches {
		if (b.Tok == token.BREAK || b.Tok == token.GOTO) && within(b, body) {
			return true
		}
	}
	return u.blocksIn(body, "panic", "Wait")
}
