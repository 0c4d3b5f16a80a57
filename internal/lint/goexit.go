package lint

import (
	"go/ast"
	"go/token"
)

// GoExit enforces goroutine termination in the pipeline and server
// packages: every `go func() { ... }` literal must either observe a
// termination signal — a channel receive, a select, a ctx.Done() call, a
// WaitGroup Wait — or be provably finite. A goroutine that loops forever
// with no way to hear "stop" outlives its query and leaks a worker; the
// leak checker catches it at test time, this analyzer catches it at lint
// time. Named-function `go` statements are not checked (their bodies are
// analyzed when the function itself is spawned with a literal, and the
// project's long-lived stage loops all terminate by channel close).
var GoExit = &Analyzer{
	Name: "goexit",
	Doc:  "go func literals must select on a done channel / ctx.Done() or be provably finite",
	Dirs: []string{"internal/scanraw", "internal/server", "internal/queryapi"},
	Run:  runGoExit,
}

func runGoExit(f *File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(f.File, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		diags = append(diags, checkGoLit(f, lit)...)
		return true
	})
	return diags
}

// checkGoLit flags loops in the literal that can never terminate: an
// unconditional `for { ... }` whose body has no receive, select, return,
// break, goto or panic, and conditional/range loops only when the whole
// literal lacks any termination signal.
func checkGoLit(f *File, lit *ast.FuncLit) []Diagnostic {
	var diags []Diagnostic
	signal := hasTerminationSignal(lit.Body)
	inspectNoFuncLit(lit.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if loop.Cond == nil {
			if !loopCanExit(loop.Body) {
				diags = append(diags, f.diag("goexit", loop,
					"goroutine loops forever with no receive, select, return or break — it can never hear a done signal"))
			}
			return true
		}
		if !signal && !hasTerminationSignal(loop.Body) {
			diags = append(diags, f.diag("goexit", loop,
				"goroutine loop has no termination signal — select on a done channel or ctx.Done(), or bound the loop"))
		}
		return true
	})
	return diags
}

// hasTerminationSignal reports whether the subtree contains something that
// lets the goroutine observe shutdown or finish naturally: a channel
// receive, a select, ctx.Done(), a WaitGroup Wait, or a range loop (which
// ends when its producer closes or its collection is exhausted).
func hasTerminationSignal(n ast.Node) bool {
	found := false
	inspectNoFuncLit(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch v := m.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			found = true
		case *ast.CallExpr:
			if _, name := callee(v); name == "Done" || name == "Wait" {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopCanExit reports whether a `for {}` body contains any construct that
// can leave the loop or block on a signal.
func loopCanExit(body *ast.BlockStmt) bool {
	can := false
	inspectNoFuncLit(body, func(m ast.Node) bool {
		if can {
			return false
		}
		switch v := m.(type) {
		case *ast.ReturnStmt, *ast.SelectStmt:
			can = true
		case *ast.BranchStmt:
			if v.Tok == token.BREAK || v.Tok == token.GOTO {
				can = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				can = true
			}
		case *ast.CallExpr:
			if _, name := callee(v); name == "panic" || name == "Wait" {
				can = true
			}
		}
		return !can
	})
	return can
}
