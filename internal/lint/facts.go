package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// unit is one function body under analysis — a declaration or a function
// literal — with the facts about it that every analyzer used to re-derive
// with a walk of its own. funcUnits builds the table once per body; the
// analyzers are queries over it plus position comparisons.
//
// Everything here is positional, not path-sensitive: a lock region runs from
// the Lock call to the first matching Unlock that follows it in the source
// (to the end of the body when the unlock is deferred or missing), "the
// latest assignment before p" is the one written last above p, and a call
// "between" two positions is one written between them. Straight-line code
// with early exits — which is how the guarded code is written — reads the
// same either way; an unlock on one arm of a branch, a loop that re-enters a
// region, or a variable reused for two purposes do not.
type unit struct {
	f      *File
	name   string   // declaration name; "<outer> (func literal at line N)" for literals
	node   ast.Node // *ast.FuncDecl or *ast.FuncLit
	typ    *ast.FuncType
	body   *ast.BlockStmt
	params map[string]bool // parameter, result and receiver names
	isGo   bool            // a literal that is the operand of a go statement

	// Everything in source order. allCalls and allAssigns include what sits
	// inside nested literals (a closure that releases a buffer releases it);
	// the other tables hold only what runs as part of this unit — nested
	// literals are units of their own.
	allCalls   []callEvent
	allAssigns []*ast.AssignStmt
	calls      []callEvent
	assigns    []*ast.AssignStmt
	stmts      []ast.Stmt // every statement
	chanOps    []ast.Node // send statements, receive expressions, select statements
	returns    []*ast.ReturnStmt
	branches   []*ast.BranchStmt
	fors       []*ast.ForStmt
	ranges     []*ast.RangeStmt
	conds      []ast.Expr // if and for conditions
	regions    []lockRegion
}

// callEvent is one call expression and where it stands.
type callEvent struct {
	call     *ast.CallExpr
	recvExpr ast.Expr // receiver or package expression; nil for a bare name
	recv     string   // its rendered text ("o.cache")
	name     string   // bare function or method name ("Unpin")
	parent   ast.Node // the node the call is a direct child of
	inDefer  bool     // runs at function exit: inside a defer statement of this unit
}

// lockRegion is one positional critical section: from a Lock/RLock call on
// recv to the first matching unlock after it, or — for `defer x.opener()()`,
// where opener is a function that locks and returns the unlock — from the
// defer statement to the end of the body. Which openers count is the
// consumer's call: the region only records the name.
type lockRegion struct {
	recvExpr   ast.Expr // nil for an opener region
	recv       string
	lock       string // "Lock" or "RLock"; "" for an opener region
	opener     string // callee name of the inner call of `defer x.opener()()`
	at         ast.Node
	start, end token.Pos
}

var lockNames = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

func (u *unit) diag(analyzer string, n ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: u.f.Fset.Position(n.Pos()), Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// isDecl reports whether the unit is a declaration, callable by name.
func (u *unit) isDecl() bool {
	_, ok := u.node.(*ast.FuncDecl)
	return ok
}

func (u *unit) line(n ast.Node) int { return u.f.Fset.Position(n.Pos()).Line }

// within reports whether node n lies inside the source range of outer.
func within(n, outer ast.Node) bool {
	return n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

// funcUnits collects every function body in the file — declarations, and
// the literals inside any declaration — as independent analysis units.
func funcUnits(f *File) []*unit {
	var units []*unit
	goLits := map[*ast.FuncLit]bool{}
	for _, decl := range f.File.Decls {
		outer := "package scope"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			outer = fd.Name.Name
			if fd.Body != nil {
				units = append(units, newUnit(f, outer, fd, fd.Type, fd.Recv, fd.Body))
			}
		}
		inspect(decl, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
					goLits[lit] = true
				}
			case *ast.FuncLit:
				name := fmt.Sprintf("%s (func literal at line %d)", outer, f.Fset.Position(v.Pos()).Line)
				lu := newUnit(f, name, v, v.Type, nil, v.Body)
				lu.isGo = goLits[v]
				units = append(units, lu)
			}
			return true
		})
	}
	return units
}

// newUnit walks the body once and fills the fact table.
func newUnit(f *File, name string, node ast.Node, typ *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) *unit {
	u := &unit{f: f, name: name, node: node, typ: typ, body: body, params: map[string]bool{}}
	for _, fl := range []*ast.FieldList{recv, typ.Params, typ.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, n := range field.Names {
				u.params[n.Name] = true
			}
		}
	}

	// lits and defers count the enclosing nested literals and, outside any
	// of those, the enclosing defer statements of the node being visited.
	var stack []ast.Node
	var lits, defers int
	enter := func(n ast.Node, d int) {
		switch n.(type) {
		case *ast.FuncLit:
			lits += d
		case *ast.DeferStmt:
			if lits == 0 {
				defers += d
			}
		}
	}
	var openers []lockRegion
	inspect(body, func(n ast.Node) bool {
		if n == nil {
			enter(stack[len(stack)-1], -1)
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			ev := callEvent{call: call, parent: stack[len(stack)-1], inDefer: defers > 0}
			ev.recvExpr, ev.name = callee(call)
			ev.recv = exprText(ev.recvExpr)
			u.allCalls = append(u.allCalls, ev)
			if lits == 0 {
				u.calls = append(u.calls, ev)
			}
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			u.allAssigns = append(u.allAssigns, as)
		}
		if lits == 0 {
			if s, ok := n.(ast.Stmt); ok {
				u.stmts = append(u.stmts, s)
			}
			switch v := n.(type) {
			case *ast.AssignStmt:
				u.assigns = append(u.assigns, v)
			case *ast.SendStmt, *ast.SelectStmt:
				u.chanOps = append(u.chanOps, v)
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					u.chanOps = append(u.chanOps, v)
				}
			case *ast.ReturnStmt:
				u.returns = append(u.returns, v)
			case *ast.BranchStmt:
				u.branches = append(u.branches, v)
			case *ast.RangeStmt:
				u.ranges = append(u.ranges, v)
			case *ast.ForStmt:
				u.fors = append(u.fors, v)
				if v.Cond != nil {
					u.conds = append(u.conds, v.Cond)
				}
			case *ast.IfStmt:
				u.conds = append(u.conds, v.Cond)
			case *ast.DeferStmt:
				// defer x.opener()(): the inner call runs here, the unlock
				// it returns at exit — a region to the end of the body.
				if inner, ok := v.Call.Fun.(*ast.CallExpr); ok {
					_, name := callee(inner)
					openers = append(openers, lockRegion{opener: name, at: v, start: v.End(), end: body.End()})
				}
			}
		}
		enter(n, +1)
		stack = append(stack, n)
		return true
	})

	// Critical sections: each direct Lock/RLock that runs in line (not in a
	// defer, not in a nested literal) holds until the first matching unlock
	// written after it, or to the end of the body.
	for i, c := range u.calls {
		unlock, isLock := lockNames[c.name]
		if !isLock || c.recv == "" || c.inDefer {
			continue
		}
		r := lockRegion{recvExpr: c.recvExpr, recv: c.recv, lock: c.name, at: c.call, start: c.call.End(), end: body.End()}
		for _, v := range u.calls[i+1:] {
			if v.recv == c.recv && v.name == unlock && !v.inDefer && v.call.Pos() > r.start {
				r.end = v.call.Pos()
				break
			}
		}
		u.regions = append(u.regions, r)
	}
	u.regions = append(u.regions, openers...)
	sort.SliceStable(u.regions, func(i, j int) bool { return u.regions[i].at.Pos() < u.regions[j].at.Pos() })
	return u
}

// inSelect reports whether n stands inside a select statement of this unit
// (other than n itself) that lies wholly between lo and hi.
func (u *unit) inSelect(n ast.Node, lo, hi token.Pos) bool {
	for _, op := range u.chanOps {
		if sel, ok := op.(*ast.SelectStmt); ok && ast.Node(sel) != n && within(n, sel) && sel.Pos() > lo && sel.End() <= hi {
			return true
		}
	}
	return false
}

// lastAssignBefore returns the assignment written last above pos — anywhere
// in the body, nested literals included — that has the bare identifier name
// on its left-hand side, or nil.
func (u *unit) lastAssignBefore(name string, pos token.Pos) *ast.AssignStmt {
	var last *ast.AssignStmt
	for _, as := range u.allAssigns {
		if as.Pos() >= pos {
			break
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == name {
				last = as
			}
		}
	}
	return last
}
