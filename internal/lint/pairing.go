package lint

import (
	"go/ast"
	"go/token"
)

// pairing.go is the shared acquire/release tracking engine behind the
// pinbalance and poolpair analyzers. Both enforce the same shape of
// invariant — a resource obtained from an acquire call must reach a release
// call on every path, unless ownership is transferred (the resource is
// passed to another function, sent on a channel, returned, or stored) — so
// they share one intraprocedural, path-sensitive-by-heuristic tracker.
//
// Phase A follows resources from their acquire site forward: a branch that
// exits the function (or loop iteration) while the resource is live and
// unreleased is a drop. Phase B works backwards from release sites: when a
// function releases an expression on its main path, any earlier branch that
// exits without releasing or transferring it is an inconsistent-release
// drop — the classic "early return on error leaks the resource" bug.
//
// Both phases exempt branches whose condition is the error (or ok flag)
// produced by the same statement that produced the resource: by the
// project's conventions the resource is nil/untaken exactly when that
// error is non-nil, so the "leak" cannot hold anything.

// acqKind describes how an acquire call binds its resource: either one of
// the call's results (the first, unless result says which), or one of its
// arguments (a pin taken on an existing object).
type acqKind struct {
	fromResult bool
	result     int
	argIdx     int
}

// pairSpec parameterizes the engine for one analyzer.
type pairSpec struct {
	analyzer string
	what     string // human noun for messages: "pinned chunk", "pooled buffer"
	verb     string // "unpinned" / "recycled"
	acquires map[string]acqKind
	// releases names the release calls. Phase A matches the resource in any
	// argument; phase B tracks the first.
	releases map[string]bool
	// phaseB enables the inconsistent-release pass (poolpair): resources
	// released on the main path but dropped by earlier early-exits.
	phaseB bool
}

// check runs both phases over one function unit.
func (spec *pairSpec) check(u *unit) []Diagnostic {
	t := &pairTracker{u: u, spec: spec, flagged: map[string]bool{}}
	var diags []Diagnostic
	walkBlocks(u.body.List, nil, func(stack []blockRef, s ast.Stmt) {
		if d := t.acquireAt(stack, s); d != nil {
			diags = append(diags, *d)
		}
	})
	if spec.phaseB {
		diags = append(diags, t.phaseB()...)
	}
	return diags
}

type pairTracker struct {
	u    *unit
	spec *pairSpec
	// flagged records resource roots phase A already diagnosed, so phase B
	// does not double-report them.
	flagged map[string]bool
}

func (t *pairTracker) diag(n ast.Node, format string, args ...any) *Diagnostic {
	d := t.u.diag(t.spec.analyzer, n, format, args...)
	return &d
}

// acqEvent is one tracked acquisition.
type acqEvent struct {
	stmt     ast.Stmt
	res      string          // rendered resource expression ("bc", "item.pm")
	root     string          // leftmost identifier of res
	argTexts []string        // acquire-call argument texts; releases may key on these (Acquire(id) → Unpin(id))
	siblings map[string]bool // LHS identifiers of the acquire statement (err/ok flags)
}

// ── Branch structure ───────────────────────────────────────────────────

// subLists returns the statement lists nested directly in a compound
// statement or clause, in source order: the one place that knows how
// statements nest. An else-if is a one-statement list.
func subLists(n ast.Node) [][]ast.Stmt {
	switch v := n.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{v.List}
	case *ast.IfStmt:
		switch e := v.Else.(type) {
		case *ast.BlockStmt:
			return [][]ast.Stmt{v.Body.List, e.List}
		case *ast.IfStmt:
			return [][]ast.Stmt{v.Body.List, {e}}
		}
		return [][]ast.Stmt{v.Body.List}
	case *ast.ForStmt:
		return [][]ast.Stmt{v.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{v.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(v.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(v.Body)
	case *ast.SelectStmt:
		return clauseLists(v.Body)
	case *ast.CaseClause:
		return [][]ast.Stmt{v.Body}
	case *ast.CommClause:
		return [][]ast.Stmt{v.Body}
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{v.Stmt}}
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var lists [][]ast.Stmt
	for _, clause := range body.List {
		lists = append(lists, subLists(clause)...)
	}
	return lists
}

// blockRef is one level of the statement-list stack at an acquire site:
// the list and the index of the statement the walk is positioned on.
type blockRef struct {
	list []ast.Stmt
	idx  int
}

// walkBlocks visits every statement in the tree with the stack of statement
// lists leading to it. Nested function literals are not entered (separate
// units).
func walkBlocks(list []ast.Stmt, stack []blockRef, visit func([]blockRef, ast.Stmt)) {
	for i, s := range list {
		cur := append(stack[:len(stack):len(stack)], blockRef{list, i})
		visit(cur, s)
		for _, sub := range subLists(s) {
			walkBlocks(sub, cur, visit)
		}
	}
}

// findExit returns the first statement in the subtree that leaves it: a
// return anywhere (outside nested function literals) and, when branchExits,
// a goto, a break not bound to a loop, switch or select inside the subtree
// itself, or a continue not bound to a loop inside it. Loop bodies pass
// branchExits=false: break/continue stay within the loop the resource
// belongs to. Labels are not followed — a labelled break out of an inner
// loop counts as bound to that loop.
func findExit(n ast.Node, branchExits bool) ast.Stmt {
	var find func(n ast.Node, loops, switches int) ast.Stmt
	find = func(n ast.Node, loops, switches int) ast.Stmt {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			return v
		case *ast.BranchStmt:
			if branchExits && (v.Tok == token.GOTO || v.Tok == token.BREAK && loops+switches == 0 || v.Tok == token.CONTINUE && loops == 0) {
				return v
			}
		case *ast.ForStmt, *ast.RangeStmt:
			loops++
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			switches++
		}
		for _, list := range subLists(n) {
			for _, s := range list {
				if exit := find(s, loops, switches); exit != nil {
					return exit
				}
			}
		}
		return nil
	}
	return find(n, 0, 0)
}

// ── Phase A ────────────────────────────────────────────────────────────

// acquireAt detects an acquire call bound directly by this statement and
// tracks it to a verdict. Acquires reached through other expressions (call
// arguments, returns) are ownership transfers and not tracked.
func (t *pairTracker) acquireAt(stack []blockRef, s ast.Stmt) *Diagnostic {
	switch v := s.(type) {
	case *ast.AssignStmt:
		if ev := t.acquireFromAssign(v, s); ev != nil {
			return t.track(stack, ev)
		}
	case *ast.ExprStmt:
		call, ok := v.X.(*ast.CallExpr)
		if !ok {
			break
		}
		kind, isAcq := t.spec.acquires[calleeName(call)]
		if !isAcq {
			break
		}
		if kind.fromResult {
			return t.diag(v, "result of %s (a %s) is dropped on the floor — it can never be %s",
				calleeName(call), t.spec.what, t.spec.verb)
		}
		if ev := t.argAcquire(call, kind, s); ev != nil {
			return t.track(stack, ev)
		}
	case *ast.IfStmt:
		// `if res := acquire(); res != nil { ... }` — the resource lives
		// only in the branch the nil-comparison selects.
		init, ok := v.Init.(*ast.AssignStmt)
		if !ok {
			break
		}
		ev := t.acquireFromAssign(init, s)
		if ev == nil {
			break
		}
		inBody := blockRef{list: v.Body.List, idx: -1}
		switch op, isNil := isNilCompare(v.Cond, ev.res); {
		case isNil && op == token.EQL:
			// then-branch is the nil path; resource lives after the if.
			return t.track(stack, ev)
		case isNil:
			// resource lives only inside the body.
			return t.track([]blockRef{inBody}, ev)
		}
		// Other conditions: scan the body first, then fall out to the
		// statements after the if.
		return t.track(append(stack[:len(stack):len(stack)], inBody), ev)
	}
	return nil
}

func (t *pairTracker) acquireFromAssign(v *ast.AssignStmt, site ast.Stmt) *acqEvent {
	if len(v.Rhs) != 1 {
		return nil
	}
	call, ok := v.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	kind, isAcq := t.spec.acquires[calleeName(call)]
	if !isAcq {
		return nil
	}
	if !kind.fromResult {
		return t.argAcquire(call, kind, site)
	}
	if kind.result >= len(v.Lhs) {
		return nil
	}
	lhs := v.Lhs[kind.result]
	res := exprText(lhs)
	if res == "" || res == "_" {
		return nil
	}
	ev := &acqEvent{stmt: site, res: res, siblings: lhsIdents(v)}
	if root := rootIdent(lhs); root != nil {
		ev.root = root.Name
	}
	for _, a := range call.Args {
		if txt := exprText(a); txt != "" {
			ev.argTexts = append(ev.argTexts, txt)
		}
	}
	return ev
}

// lhsIdents returns the plain identifiers an assignment statement assigns
// (none for any other statement).
func lhsIdents(s ast.Stmt) map[string]bool {
	ids := map[string]bool{}
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				ids[id.Name] = true
			}
		}
	}
	return ids
}

func (t *pairTracker) argAcquire(call *ast.CallExpr, kind acqKind, site ast.Stmt) *acqEvent {
	if kind.argIdx >= len(call.Args) {
		return nil
	}
	arg := call.Args[kind.argIdx]
	res, root := exprText(arg), rootIdent(arg)
	// A pin taken on a parameter is ownership handed in by the caller
	// (insertPinned-style wrappers return the pin to the caller).
	if res == "" || root == nil || t.u.params[root.Name] {
		return nil
	}
	return &acqEvent{stmt: site, res: res, root: root.Name, siblings: lhsIdents(site)}
}

// track scans forward from the acquire site and returns a diagnostic if
// some path drops the resource.
func (t *pairTracker) track(stack []blockRef, ev *acqEvent) *Diagnostic {
	var partial ast.Stmt
	for lv := len(stack) - 1; lv >= 0; lv-- {
		ref := stack[lv]
		for _, s := range ref.list[ref.idx+1:] {
			switch verdict, d := t.classify(s, ev); verdict {
			case evSafe:
				return nil
			case evDiag:
				t.flag(ev)
				return d
			case evPartial:
				if partial == nil {
					partial = s
				}
			}
		}
	}
	t.flag(ev)
	if partial != nil {
		return t.diag(partial, "%s %s (acquired at line %d) may not be %s on every path through this statement",
			t.spec.what, ev.res, t.u.line(ev.stmt), t.spec.verb)
	}
	return t.diag(ev.stmt, "%s %s is never %s in %s", t.spec.what, ev.res, t.spec.verb, t.u.name)
}

func (t *pairTracker) flag(ev *acqEvent) {
	if ev.root != "" {
		t.flagged[ev.root] = true
	}
}

type verdict int

const (
	evNone verdict = iota
	evSafe
	evPartial
	evDiag
)

// classify decides what one statement after the acquire means for the
// resource: released/transferred (safe), dropped on a branch (diag),
// released on some branches with others falling through (partial), or
// irrelevant (none).
func (t *pairTracker) classify(s ast.Stmt, ev *acqEvent) (verdict, *Diagnostic) {
	switch v := s.(type) {
	case *ast.DeferStmt:
		if t.containsRelease(v, ev) {
			return evSafe, nil
		}
		return evNone, nil
	case *ast.ReturnStmt:
		if t.containsRelease(v, ev) || usesName(v, ev.root) {
			return evSafe, nil
		}
		return evDiag, t.diag(v, "%s %s (acquired at line %d) is not %s before this return",
			t.spec.what, ev.res, t.u.line(ev.stmt), t.spec.verb)
	case *ast.BranchStmt:
		if v.Tok == token.FALLTHROUGH {
			return evNone, nil
		}
		return evDiag, t.diag(v, "%s %s (acquired at line %d) is not %s before this %s",
			t.spec.what, ev.res, t.u.line(ev.stmt), t.spec.verb, v.Tok)
	case *ast.IfStmt:
		return t.classifyIf(v, ev)
	case *ast.ForStmt:
		return t.classifyLoop(v.Body, ev)
	case *ast.RangeStmt:
		return t.classifyLoop(v.Body, ev)
	case *ast.SwitchStmt:
		return t.classifyBranches(v.Body.List, ev, false)
	case *ast.TypeSwitchStmt:
		return t.classifyBranches(v.Body.List, ev, false)
	case *ast.SelectStmt:
		// A select blocks until one case runs: branches are exhaustive.
		return t.classifyBranches(v.Body.List, ev, true)
	}
	// Simple statements (expression, send, assign, go, decl, incdec), and
	// blocks and labelled statements, which always run.
	if t.settles(s, ev) {
		return evSafe, nil
	}
	switch s.(type) {
	case *ast.BlockStmt, *ast.LabeledStmt:
		return t.dropIn(s, ev, true)
	}
	return evNone, nil
}

// settles reports whether the subtree releases the resource or hands it on.
func (t *pairTracker) settles(n ast.Node, ev *acqEvent) bool {
	return t.containsRelease(n, ev) || t.escapes(n, ev)
}

// dropIn turns an exit inside n — where the resource is live and nothing
// settled it — into a drop finding.
func (t *pairTracker) dropIn(n ast.Node, ev *acqEvent, branchExits bool) (verdict, *Diagnostic) {
	exit := findExit(n, branchExits)
	if exit == nil {
		return evNone, nil
	}
	what := "return"
	if b, ok := exit.(*ast.BranchStmt); ok {
		what = b.Tok.String()
	}
	return evDiag, t.diag(exit, "%s %s (acquired at line %d) is not %s (and not transferred) before this %s",
		t.spec.what, ev.res, t.u.line(ev.stmt), t.spec.verb, what)
}

func (t *pairTracker) classifyIf(v *ast.IfStmt, ev *acqEvent) (verdict, *Diagnostic) {
	// A release in the if-init or the condition runs unconditionally: `if
	// err := Unpin(id); err != nil { ... }` releases on every path through
	// this statement. An if-init that hands the resource to another function
	// transfers ownership the same way: `if err := bc.SetColumn(col, v); ...`.
	if v.Init != nil && t.settles(v.Init, ev) || t.containsRelease(v.Cond, ev) {
		return evSafe, nil
	}
	// Nil guards: the resource exists only on one side of the comparison.
	if op, ok := t.nilGuard(v.Cond, ev); ok {
		live := v.Else // res != nil → live branch is Body; res == nil → Else
		if op == token.NEQ {
			live = v.Body
		}
		switch {
		case live == nil:
			return evNone, nil
		case t.settles(live, ev):
			return evSafe, nil
		}
		return t.dropIn(live, ev, true)
	}
	// Error-flag exemption: a branch on the err/ok produced by the same
	// statement that produced the resource — the resource is nil/untaken
	// exactly when the branch is taken, so it cannot leak there. The flag
	// must still be that statement's: its latest assignment before the if
	// (before the if's own init, when it has one) is looked up by name.
	pos := v.Cond.Pos()
	if v.Init != nil {
		pos = v.Init.Pos()
	}
	for name := range condIdents(v.Cond) {
		if ev.siblings[name] && t.flagTied(name, pos, ev) {
			return evNone, nil
		}
	}
	branches := []ast.Stmt{v.Body}
	e := v.Else
	for ei, ok := e.(*ast.IfStmt); ok; ei, ok = e.(*ast.IfStmt) {
		branches = append(branches, ei.Body)
		e = ei.Else
	}
	if e != nil {
		branches = append(branches, e)
	}
	return t.classifyBranches(branches, ev, v.Else != nil)
}

// classifyLoop treats a loop body as a may-run branch: a release inside is
// partial (zero iterations are possible), an unreleased exit is a drop.
func (t *pairTracker) classifyLoop(body *ast.BlockStmt, ev *acqEvent) (verdict, *Diagnostic) {
	if t.settles(body, ev) {
		return evPartial, nil
	}
	return t.dropIn(body, ev, false)
}

// classifyBranches analyzes the arms of an if/switch/select. exhaustive
// means the arms cover every path (an else exists, or it is a select).
func (t *pairTracker) classifyBranches(branches []ast.Stmt, ev *acqEvent, exhaustive bool) (verdict, *Diagnostic) {
	resolved, unresolved := 0, 0
	for _, b := range branches {
		if t.settles(b, ev) {
			resolved++
			continue
		}
		if t.branchExempt(b, ev) {
			continue
		}
		if verd, d := t.dropIn(b, ev, true); verd == evDiag {
			return verd, d
		}
		unresolved++
	}
	switch {
	case resolved > 0 && unresolved == 0 && exhaustive:
		return evSafe, nil
	case resolved > 0:
		return evPartial, nil
	}
	return evNone, nil
}

// branchExempt reports whether a case-clause branch is guarded by the
// resource's own nil-ness (CaseClause with res == nil style exprs).
func (t *pairTracker) branchExempt(b ast.Stmt, ev *acqEvent) bool {
	if cc, ok := b.(*ast.CaseClause); ok {
		for _, e := range cc.List {
			if _, isNil := isNilCompare(e, ev.res); isNil {
				return true
			}
		}
	}
	return false
}

// nilGuard recognizes res == nil / res != nil conditions (also matching on
// the resource's root identifier).
func (t *pairTracker) nilGuard(cond ast.Expr, ev *acqEvent) (token.Token, bool) {
	if op, ok := isNilCompare(cond, ev.res); ok || ev.root == "" {
		return op, ok
	}
	return isNilCompare(cond, ev.root)
}

// flagTied reports whether the latest assignment to the flag name before pos
// is tied to the resource's production: it is the acquire statement itself,
// or it assigns the resource too (a reassigned flag loses the exemption).
func (t *pairTracker) flagTied(name string, pos token.Pos, ev *acqEvent) bool {
	last := t.u.lastAssignBefore(name, pos)
	if last == nil {
		return false
	}
	if is, ok := ev.stmt.(*ast.IfStmt); ast.Stmt(last) == ev.stmt || ok && is.Init == ast.Stmt(last) {
		return true
	}
	for _, l := range last.Lhs {
		if txt := exprText(l); txt != "" && (txt == ev.res || txt == ev.root) {
			return true
		}
	}
	return false
}

// ── shared matching ────────────────────────────────────────────────────

// containsRelease reports whether the subtree (nested literals included)
// holds a release call whose argument matches the resource: by full text,
// by root identifier, or by one of the acquire call's own arguments —
// Acquire(id) pairs with Unpin(id).
func (t *pairTracker) containsRelease(n ast.Node, ev *acqEvent) bool {
	for _, c := range t.u.allCalls {
		if within(c.call, n) && t.releaseMatches(c.call, ev) {
			return true
		}
	}
	return false
}

func (t *pairTracker) releaseMatches(call *ast.CallExpr, ev *acqEvent) bool {
	if !t.spec.releases[calleeName(call)] {
		return false
	}
	for _, a := range call.Args {
		txt := exprText(a)
		if txt != "" && (txt == ev.res || txt == ev.root) {
			return true
		}
		if r := rootIdent(a); r != nil && r.Name == ev.root {
			return true
		}
		for _, at := range ev.argTexts {
			if txt != "" && txt == at {
				return true
			}
		}
	}
	return false
}

// escapes reports whether the subtree transfers ownership of the resource:
// passed as a call argument, sent on a channel,
// returned, or stored through an assignment's right-hand side. Function
// literals are included — a closure capturing the resource owns it.
func (t *pairTracker) escapes(n ast.Node, ev *acqEvent) bool {
	if ev.root == "" {
		return false
	}
	found := false
	uses := func(exprs ...ast.Expr) {
		for _, e := range exprs {
			found = found || usesName(e, ev.root)
		}
	}
	inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.CallExpr:
			// Builtins don't take ownership (append/len over the resource's
			// own fields is bookkeeping, not transfer).
			if !builtinFuncs[calleeName(v)] {
				uses(v.Args...)
			}
		case *ast.SendStmt:
			uses(v.Chan, v.Value)
		case *ast.ReturnStmt:
			uses(v.Results...)
		case *ast.AssignStmt:
			// Writes INTO the resource (m.Starts = append(m.Starts, x))
			// mutate it in place; nothing changes hands.
			for _, l := range v.Lhs {
				if usesName(l, ev.root) {
					return false
				}
			}
			uses(v.Rhs...)
		}
		return !found
	})
	return found
}

// ── Phase B: inconsistent release ──────────────────────────────────────

// phaseB works backwards from release sites: a resource the unit releases
// on its main path must not be dropped by an earlier branch that exits the
// function. Resources whose releases are deferred (directly or from a
// deferred closure), or that phase A already diagnosed, are skipped.
func (t *pairTracker) phaseB() []Diagnostic {
	type anchor struct {
		ev       *acqEvent
		lastPos  token.Pos // last release/transfer of the root
		deferred bool
	}
	var anchors []*anchor
	byRoot := map[string]*anchor{}
	for _, c := range t.u.allCalls {
		if !t.spec.releases[c.name] || len(c.call.Args) == 0 {
			continue
		}
		arg := c.call.Args[0]
		r := rootIdent(arg)
		if r == nil {
			continue
		}
		a := byRoot[r.Name]
		if a == nil {
			a = &anchor{ev: &acqEvent{res: exprText(arg), root: r.Name}}
			byRoot[r.Name] = a
			anchors = append(anchors, a)
		}
		a.deferred = a.deferred || c.inDefer
		a.lastPos = max(a.lastPos, c.call.End())
	}

	var diags []Diagnostic
	for _, a := range anchors {
		root := a.ev.root
		if a.deferred || t.flagged[root] {
			continue
		}
		// The suspect region runs from where the unit comes to own the
		// resource — the top of the body for a parameter, else its first
		// mention in a simple statement or a range clause (a mention deep
		// inside a compound must not pull the start before the binding) — to
		// the last point it still owns it: the last release, or a later
		// simple statement that hands it on.
		firstUse := token.NoPos
		for _, s := range t.u.stmts {
			switch v := s.(type) {
			case *ast.ExprStmt, *ast.SendStmt, *ast.AssignStmt, *ast.GoStmt, *ast.DeferStmt, *ast.ReturnStmt, *ast.DeclStmt:
				if firstUse == token.NoPos && usesName(s, root) {
					firstUse = s.Pos()
				}
				if s.End() > a.lastPos && t.escapes(s, a.ev) {
					a.lastPos = s.End()
				}
			case *ast.RangeStmt:
				// `for item := range ch` binds the root for the loop body.
				if firstUse == token.NoPos && (usesName(v.Key, root) || usesName(v.Value, root)) {
					firstUse = s.Pos()
				}
			}
		}
		if t.u.params[root] || firstUse == token.NoPos {
			firstUse = t.u.body.Pos()
		}
		diags = append(diags, t.earlyExits(a.ev, firstUse, a.lastPos)...)
	}
	return diags
}

// earlyExits flags the outermost compounds between the first use and the
// release anchor that exit while the resource is owned and unsettled.
func (t *pairTracker) earlyExits(ev *acqEvent, firstUse, anchor token.Pos) []Diagnostic {
	var diags []Diagnostic
	flaggedEnd := token.NoPos // compounds nested in a flagged one are covered by it
	for _, s := range t.u.stmts {
		switch s.(type) {
		case *ast.IfStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
		default:
			continue
		}
		if s.Pos() < firstUse || s.End() > anchor || s.Pos() < flaggedEnd || t.settles(s, ev) {
			continue
		}
		if v, ok := s.(*ast.IfStmt); ok {
			// The buffer's own nil-ness, or — mirroring the error-flag
			// exemption — a flag whose latest assignment also produced the
			// buffer, guards the exit. An if with an init is an unrelated
			// call's guard: no exemption from it.
			_, exempt := t.nilGuard(v.Cond, ev)
			for name := range condIdents(v.Cond) {
				exempt = exempt || v.Init == nil && t.flagTied(name, v.Pos(), ev)
			}
			if exempt {
				continue
			}
		}
		if exit := findExit(s, true); exit != nil {
			flaggedEnd = s.End()
			diags = append(diags, *t.diag(exit, "%s %s is %s later in %s but not on this early-exit path",
				t.spec.what, ev.res, t.spec.verb, t.u.name))
		}
	}
	return diags
}
