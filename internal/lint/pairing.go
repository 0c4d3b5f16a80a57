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

// acqKind describes how an acquire call binds its resource: either the
// call's first result, or one of its arguments (a pin taken on an existing
// object).
type acqKind struct {
	fromResult bool
	argIdx     int
}

// pairSpec parameterizes the engine for one analyzer.
type pairSpec struct {
	analyzer string
	what     string // human noun for messages: "pinned chunk", "pooled buffer"
	verb     string // "unpinned" / "recycled"
	acquires map[string]acqKind
	// releases maps release-call names to the index of the argument that
	// is the resource (-1 = last argument). Phase A matches any argument;
	// phase B tracks only the designated one.
	releases map[string]int
	// phaseB enables the inconsistent-release pass (poolpair): resources
	// released on the main path but dropped by earlier early-exits.
	phaseB bool
}

// checkPairs runs both phases over every function unit in the file.
func checkPairs(f *File, spec *pairSpec) []Diagnostic {
	var diags []Diagnostic
	for _, u := range funcUnits(f) {
		t := &pairTracker{f: f, u: u, spec: spec}
		diags = append(diags, t.phaseA()...)
		if spec.phaseB {
			diags = append(diags, t.phaseBPass()...)
		}
	}
	return diags
}

// blockRef is one level of the statement-list stack at an acquire site:
// the list and the index of the statement the walk is positioned on.
type blockRef struct {
	list []ast.Stmt
	idx  int
}

type pairTracker struct {
	f    *File
	u    unit
	spec *pairSpec
	// flagged records resource roots phase A already diagnosed, so phase B
	// does not double-report them.
	flagged map[string]bool
}

// acqEvent is one tracked acquisition.
type acqEvent struct {
	stmt     ast.Stmt
	call     *ast.CallExpr
	res      string          // rendered resource expression ("bc", "item.pm")
	root     string          // leftmost identifier of res
	argTexts []string        // acquire-call argument texts; releases may key on these (Acquire(id) → Unpin(id))
	siblings map[string]bool // LHS identifiers of the acquire statement (err/ok flags)
}

// ── Phase A ────────────────────────────────────────────────────────────

func (t *pairTracker) phaseA() []Diagnostic {
	t.flagged = map[string]bool{}
	var diags []Diagnostic
	walkBlocks(t.u.body.List, nil, func(stack []blockRef, s ast.Stmt) {
		for _, d := range t.acquiresIn(stack, s) {
			diags = append(diags, *d)
		}
	})
	return diags
}

// walkBlocks visits every statement in the tree with the stack of statement
// lists leading to it. Nested function literals are not entered (separate
// units).
func walkBlocks(list []ast.Stmt, stack []blockRef, visit func([]blockRef, ast.Stmt)) {
	for i, s := range list {
		cur := append(append([]blockRef(nil), stack...), blockRef{list, i})
		visit(cur, s)
		switch v := s.(type) {
		case *ast.BlockStmt:
			walkBlocks(v.List, cur, visit)
		case *ast.IfStmt:
			walkBlocks(v.Body.List, cur, visit)
			if v.Else != nil {
				if blk, ok := v.Else.(*ast.BlockStmt); ok {
					walkBlocks(blk.List, cur, visit)
				} else {
					walkBlocks([]ast.Stmt{v.Else}, cur, visit)
				}
			}
		case *ast.ForStmt:
			walkBlocks(v.Body.List, cur, visit)
		case *ast.RangeStmt:
			walkBlocks(v.Body.List, cur, visit)
		case *ast.SwitchStmt:
			for _, cc := range v.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					walkBlocks(c.Body, cur, visit)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range v.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					walkBlocks(c.Body, cur, visit)
				}
			}
		case *ast.SelectStmt:
			for _, cc := range v.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					walkBlocks(c.Body, cur, visit)
				}
			}
		case *ast.LabeledStmt:
			walkBlocks([]ast.Stmt{v.Stmt}, cur, visit)
		}
	}
}

// acquiresIn detects acquire calls bound directly by this statement and
// tracks each to a verdict. Acquires reached through other expressions
// (call arguments, returns) are ownership transfers and not tracked.
func (t *pairTracker) acquiresIn(stack []blockRef, s ast.Stmt) []*Diagnostic {
	var out []*Diagnostic
	switch v := s.(type) {
	case *ast.AssignStmt:
		if ev := t.acquireFromAssign(v, s); ev != nil {
			out = append(out, t.track(stack, ev))
		}
	case *ast.ExprStmt:
		call, ok := v.X.(*ast.CallExpr)
		if !ok {
			break
		}
		kind, isAcq := t.acquireCall(call)
		if !isAcq {
			break
		}
		if kind.fromResult {
			out = append(out, ptr(t.f.diag(t.spec.analyzer, v,
				"result of %s (a %s) is dropped on the floor — it can never be %s",
				calleeName(call), t.spec.what, t.spec.verb)))
			break
		}
		ev := t.argAcquire(call, kind, s)
		if ev != nil {
			out = append(out, t.track(stack, ev))
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
		if op, isNil := isNilCompare(v.Cond, ev.res); isNil {
			if op == token.EQL {
				// then-branch is the nil path; resource lives after the if.
				out = append(out, t.track(stack, ev))
			} else {
				// resource lives only inside the body.
				out = append(out, t.track([]blockRef{{list: v.Body.List, idx: -1}}, ev))
			}
			break
		}
		// Other conditions: scan the body first, then fall out to the
		// statements after the if.
		inner := append(append([]blockRef(nil), stack...), blockRef{list: v.Body.List, idx: -1})
		out = append(out, t.track(inner, ev))
	}
	var filtered []*Diagnostic
	for _, d := range out {
		if d != nil {
			filtered = append(filtered, d)
		}
	}
	return filtered
}

func (t *pairTracker) acquireFromAssign(v *ast.AssignStmt, site ast.Stmt) *acqEvent {
	if len(v.Rhs) != 1 {
		return nil
	}
	call, ok := v.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	kind, isAcq := t.acquireCall(call)
	if !isAcq {
		return nil
	}
	if !kind.fromResult {
		return t.argAcquire(call, kind, site)
	}
	if len(v.Lhs) == 0 {
		return nil
	}
	res := exprText(v.Lhs[0])
	if res == "" || res == "_" {
		return nil
	}
	ev := &acqEvent{stmt: site, call: call, res: res, siblings: map[string]bool{}}
	if root := rootIdent(v.Lhs[0]); root != nil {
		ev.root = root.Name
	}
	for _, a := range call.Args {
		if txt := exprText(a); txt != "" {
			ev.argTexts = append(ev.argTexts, txt)
		}
	}
	for _, l := range v.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			ev.siblings[id.Name] = true
		}
	}
	return ev
}

func (t *pairTracker) argAcquire(call *ast.CallExpr, kind acqKind, site ast.Stmt) *acqEvent {
	if kind.argIdx >= len(call.Args) {
		return nil
	}
	arg := call.Args[kind.argIdx]
	res := exprText(arg)
	root := rootIdent(arg)
	if res == "" || root == nil {
		return nil
	}
	// A pin taken on a parameter is ownership handed in by the caller
	// (insertPinned-style wrappers return the pin to the caller).
	if t.u.params[root.Name] {
		return nil
	}
	ev := &acqEvent{stmt: site, call: call, res: res, root: root.Name, siblings: map[string]bool{}}
	if as, ok := site.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				ev.siblings[id.Name] = true
			}
		}
	}
	return ev
}

func (t *pairTracker) acquireCall(call *ast.CallExpr) (acqKind, bool) {
	k, ok := t.spec.acquires[calleeName(call)]
	return k, ok
}

func calleeName(call *ast.CallExpr) string {
	_, name := callee(call)
	return name
}

func ptr(d Diagnostic) *Diagnostic { return &d }

// track scans forward from the acquire site and returns a diagnostic if
// some path drops the resource.
func (t *pairTracker) track(stack []blockRef, ev *acqEvent) *Diagnostic {
	var partial ast.Stmt
	var branchDiag *Diagnostic
	for lv := len(stack) - 1; lv >= 0 && branchDiag == nil; lv-- {
		ref := stack[lv]
		for i := ref.idx + 1; i < len(ref.list); i++ {
			verdict, d := t.classify(ref.list[i], ev)
			switch verdict {
			case evSafe:
				return nil
			case evDiag:
				branchDiag = d
			case evPartial:
				if partial == nil {
					partial = ref.list[i]
				}
			}
			if branchDiag != nil {
				break
			}
		}
	}
	if branchDiag != nil {
		t.flag(ev)
		return branchDiag
	}
	acqLine := t.f.pos(ev.stmt).Line
	if partial != nil {
		t.flag(ev)
		return ptr(t.f.diag(t.spec.analyzer, partial,
			"%s %s (acquired at line %d) may not be %s on every path through this statement",
			t.spec.what, ev.res, acqLine, t.spec.verb))
	}
	t.flag(ev)
	return ptr(t.f.diag(t.spec.analyzer, ev.stmt,
		"%s %s is never %s in %s", t.spec.what, ev.res, t.spec.verb, t.u.name))
}

func (t *pairTracker) flag(ev *acqEvent) {
	if t.flagged != nil && ev.root != "" {
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
		return evDiag, ptr(t.f.diag(t.spec.analyzer, v,
			"%s %s (acquired at line %d) is not %s before this return",
			t.spec.what, ev.res, t.f.pos(ev.stmt).Line, t.spec.verb))
	case *ast.BranchStmt:
		if v.Tok == token.BREAK || v.Tok == token.CONTINUE || v.Tok == token.GOTO {
			return evDiag, ptr(t.f.diag(t.spec.analyzer, v,
				"%s %s (acquired at line %d) is not %s before this %s",
				t.spec.what, ev.res, t.f.pos(ev.stmt).Line, t.spec.verb, v.Tok))
		}
		return evNone, nil
	case *ast.IfStmt:
		return t.classifyIf(v, ev)
	case *ast.ForStmt:
		return t.classifyLoop(v.Body, ev)
	case *ast.RangeStmt:
		return t.classifyLoop(v.Body, ev)
	case *ast.SwitchStmt:
		return t.classifyBranches(t.caseBranches(v.Body), ev, false)
	case *ast.TypeSwitchStmt:
		return t.classifyBranches(t.caseBranches(v.Body), ev, false)
	case *ast.SelectStmt:
		var branches []ast.Node
		for _, cc := range v.Body.List {
			branches = append(branches, cc)
		}
		// A select blocks until one case runs: branches are exhaustive.
		return t.classifyBranches(branches, ev, true)
	case *ast.BlockStmt, *ast.LabeledStmt:
		// Treated as a single branch that always runs.
		if t.containsRelease(s, ev) {
			return evSafe, nil
		}
		if t.escapes(s, ev) {
			return evSafe, nil
		}
		if exit := firstExitScoped(s); exit != nil {
			return evDiag, t.dropDiag(exit, ev)
		}
		return evNone, nil
	default:
		// Simple statements: expression, send, assign, go, decl, incdec.
		if t.containsRelease(s, ev) {
			return evSafe, nil
		}
		if t.escapes(s, ev) {
			return evSafe, nil
		}
		return evNone, nil
	}
}

func (t *pairTracker) caseBranches(body *ast.BlockStmt) []ast.Node {
	var branches []ast.Node
	for _, cc := range body.List {
		branches = append(branches, cc)
	}
	return branches
}

func (t *pairTracker) classifyIf(v *ast.IfStmt, ev *acqEvent) (verdict, *Diagnostic) {
	// An Unpin in the if-init runs unconditionally: `if err := Unpin(id);
	// werr == nil { ... }` releases on every path through this statement.
	if v.Init != nil && t.containsRelease(v.Init, ev) {
		return evSafe, nil
	}
	// An if-init that hands the resource to another function transfers
	// ownership unconditionally: `if err := bc.SetColumn(col, v); ...`.
	if v.Init != nil && t.escapes(v.Init, ev) {
		return evSafe, nil
	}
	if v.Cond != nil && t.containsReleaseExpr(v.Cond, ev) {
		return evSafe, nil
	}
	// Nil guards: the resource exists only on one side of the comparison.
	if op, ok := t.nilGuard(v.Cond, ev); ok {
		live := v.Else // res != nil → live branch is Body; res == nil → Else
		if op == token.NEQ {
			live = v.Body
		}
		if live == nil {
			return evNone, nil
		}
		if t.containsRelease(live, ev) || t.escapes(live, ev) {
			return evSafe, nil
		}
		if exit := firstExitScoped(live); exit != nil {
			return evDiag, t.dropDiag(exit, ev)
		}
		return evNone, nil
	}
	// Error-flag exemption: a branch on the err/ok produced by the same
	// statement that produced the resource — the resource is nil/untaken
	// exactly when the branch is taken, so it cannot leak there.
	if t.condExempt(v.Cond, v.Init, ev) {
		return evNone, nil
	}
	branches := []ast.Node{v.Body}
	hasElse := false
	for e := v.Else; e != nil; {
		hasElse = true
		if ei, ok := e.(*ast.IfStmt); ok {
			branches = append(branches, ei.Body)
			e = ei.Else
			continue
		}
		branches = append(branches, e)
		break
	}
	verd, d := t.classifyBranches(branches, ev, hasElse)
	return verd, d
}

// classifyLoop treats a loop body as a may-run branch: a release inside is
// partial (zero iterations are possible), an unreleased exit is a drop.
func (t *pairTracker) classifyLoop(body *ast.BlockStmt, ev *acqEvent) (verdict, *Diagnostic) {
	rel := t.containsRelease(body, ev)
	esc := t.escapes(body, ev)
	if !rel && !esc {
		if exit := firstReturnScoped(body); exit != nil {
			return evDiag, t.dropDiag(exit, ev)
		}
		return evNone, nil
	}
	return evPartial, nil
}

// classifyBranches analyzes the arms of an if/switch/select. exhaustive
// means the arms cover every path (an else exists, or it is a select).
func (t *pairTracker) classifyBranches(branches []ast.Node, ev *acqEvent, exhaustive bool) (verdict, *Diagnostic) {
	resolved, unresolved := 0, 0
	for _, b := range branches {
		rel := t.containsRelease(b, ev)
		esc := t.escapes(b, ev)
		if rel || esc {
			resolved++
			continue
		}
		if t.branchExempt(b, ev) {
			continue
		}
		if exit := firstExitScoped(b); exit != nil {
			return evDiag, t.dropDiag(exit, ev)
		}
		unresolved++
	}
	switch {
	case resolved > 0 && unresolved == 0 && exhaustive:
		return evSafe, nil
	case resolved > 0:
		return evPartial, nil
	default:
		return evNone, nil
	}
}

// branchExempt reports whether a case-clause branch is guarded by the
// resource's own nil-ness (CaseClause with res == nil style exprs).
func (t *pairTracker) branchExempt(b ast.Node, ev *acqEvent) bool {
	cc, ok := b.(*ast.CaseClause)
	if !ok {
		return false
	}
	for _, e := range cc.List {
		if _, isNil := isNilCompare(e, ev.res); isNil {
			return true
		}
	}
	return false
}

// nilGuard recognizes res == nil / res != nil conditions (also matching on
// the resource's root identifier).
func (t *pairTracker) nilGuard(cond ast.Expr, ev *acqEvent) (token.Token, bool) {
	if cond == nil {
		return 0, false
	}
	if op, ok := isNilCompare(cond, ev.res); ok {
		return op, true
	}
	if ev.root != "" && ev.root != ev.res {
		if op, ok := isNilCompare(cond, ev.root); ok {
			return op, true
		}
	}
	return 0, false
}

// condExempt implements the error-flag exemption: the condition mentions an
// identifier whose most recent assignment before this statement either is
// the acquire statement itself or also assigns the resource — the branch
// fires exactly when the resource was never produced.
func (t *pairTracker) condExempt(cond ast.Expr, init ast.Stmt, ev *acqEvent) bool {
	if cond == nil {
		return false
	}
	pos := cond.Pos()
	if init != nil {
		// `if err := f(); err != nil` — cond idents assigned in the init
		// have nothing to do with the acquire; no exemption from them.
		pos = init.Pos()
	}
	for name := range condIdents(cond) {
		if !ev.siblings[name] {
			continue
		}
		if t.exemptionHolds(name, pos, ev) {
			return true
		}
	}
	return false
}

// exemptionHolds checks that the flag's latest assignment before pos is
// tied to the resource's production (reassigned flags lose the exemption).
func (t *pairTracker) exemptionHolds(name string, pos token.Pos, ev *acqEvent) bool {
	var last *ast.AssignStmt
	ast.Inspect(t.u.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= pos {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == name {
				if last == nil || as.Pos() > last.Pos() {
					last = as
				}
			}
		}
		return true
	})
	if last == nil {
		return true // only the acquire statement assigns it
	}
	if last == ev.stmt {
		return true
	}
	if as, ok := ev.stmt.(*ast.IfStmt); ok && as.Init == last {
		return true
	}
	// The latest assignment must also produce the resource.
	for _, l := range last.Lhs {
		if exprText(l) == ev.res || (ev.root != "" && exprText(l) == ev.root) {
			return true
		}
	}
	return false
}

func (t *pairTracker) dropDiag(exit ast.Stmt, ev *acqEvent) *Diagnostic {
	what := "exit"
	switch e := exit.(type) {
	case *ast.ReturnStmt:
		what = "return"
	case *ast.BranchStmt:
		what = e.Tok.String()
	}
	return ptr(t.f.diag(t.spec.analyzer, exit,
		"%s %s (acquired at line %d) is not %s (and not transferred) before this %s",
		t.spec.what, ev.res, t.f.pos(ev.stmt).Line, t.spec.verb, what))
}

// ── shared matching ────────────────────────────────────────────────────

// containsRelease reports whether the subtree holds a release call whose
// argument matches the resource (by full text, root identifier, or one of
// the acquire call's own arguments — Acquire(id) pairs with Unpin(id)).
func (t *pairTracker) containsRelease(n ast.Node, ev *acqEvent) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t.releaseMatches(call, ev) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (t *pairTracker) containsReleaseExpr(e ast.Expr, ev *acqEvent) bool {
	return t.containsRelease(e, ev)
}

func (t *pairTracker) releaseMatches(call *ast.CallExpr, ev *acqEvent) bool {
	if _, ok := t.spec.releases[calleeName(call)]; !ok {
		return false
	}
	for _, a := range call.Args {
		txt := exprText(a)
		if txt != "" && (txt == ev.res || txt == ev.root) {
			return true
		}
		if r := rootIdent(a); r != nil && ev.root != "" && r.Name == ev.root {
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
// passed as a call argument (to a non-release function), sent on a channel,
// returned, or stored through an assignment's right-hand side. Function
// literals are included — a closure capturing the resource owns it.
func (t *pairTracker) escapes(n ast.Node, ev *acqEvent) bool {
	if ev.root == "" {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch v := m.(type) {
		case *ast.CallExpr:
			if t.releaseMatches(v, ev) {
				return false
			}
			// Builtins don't take ownership (append/len over the resource's
			// own fields is bookkeeping, not transfer).
			if _, name := callee(v); builtinFuncs[name] {
				return true
			}
			for _, a := range v.Args {
				if usesName(a, ev.root) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if usesName(v.Chan, ev.root) || usesName(v.Value, ev.root) {
				found = true
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if usesName(r, ev.root) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			if m == ev.stmt {
				return true
			}
			// Writes INTO the resource (m.Starts = append(m.Starts, x))
			// mutate it in place; nothing changes hands.
			for _, l := range v.Lhs {
				if usesName(l, ev.root) {
					return false
				}
			}
			for _, r := range v.Rhs {
				if usesName(r, ev.root) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// firstExitScoped finds the first statement that exits the resource's
// scope: a return anywhere (outside nested function literals), or a
// break/continue not bound to a loop inside the subtree itself.
func firstExitScoped(n ast.Node) ast.Stmt {
	return findExit(n, true)
}

// firstReturnScoped finds only returns — used for loop bodies, where
// break/continue stay within the loop the resource belongs to.
func firstReturnScoped(n ast.Node) ast.Stmt {
	return findExit(n, false)
}

func findExit(n ast.Node, branchExits bool) ast.Stmt {
	var exit ast.Stmt
	// loopDepth counts for/range statements inside the subtree (break and
	// continue bind to them); switchDepth counts switch/select statements
	// (only break binds to those — continue passes through to the loop the
	// resource's scope lives in).
	var walk func(m ast.Node, loopDepth, switchDepth int)
	walk = func(m ast.Node, loopDepth, switchDepth int) {
		if m == nil || exit != nil {
			return
		}
		switch v := m.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exit = v
			return
		case *ast.BranchStmt:
			if !branchExits {
				return
			}
			switch v.Tok {
			case token.BREAK:
				if loopDepth == 0 && switchDepth == 0 {
					exit = v
				}
			case token.CONTINUE:
				if loopDepth == 0 {
					exit = v
				}
			case token.GOTO:
				exit = v
			}
			return
		case *ast.ForStmt:
			walk(v.Body, loopDepth+1, switchDepth)
			return
		case *ast.RangeStmt:
			walk(v.Body, loopDepth+1, switchDepth)
			return
		case *ast.SwitchStmt:
			walk(v.Body, loopDepth, switchDepth+1)
			return
		case *ast.TypeSwitchStmt:
			walk(v.Body, loopDepth, switchDepth+1)
			return
		case *ast.SelectStmt:
			walk(v.Body, loopDepth, switchDepth+1)
			return
		}
		// Generic: recurse into direct children with the same depths.
		ast.Inspect(m, func(k ast.Node) bool {
			if exit != nil || k == nil {
				return false
			}
			if k == m {
				return true
			}
			walk(k, loopDepth, switchDepth)
			return false
		})
	}
	walk(n, 0, 0)
	return exit
}

// ── Phase B: inconsistent release ──────────────────────────────────────

// phaseBPass works backwards from release sites: a resource the unit
// releases on its main path must not be dropped by an earlier branch that
// exits the function. Resources whose releases are deferred, or that phase
// A already diagnosed, are skipped.
func (t *pairTracker) phaseBPass() []Diagnostic {
	type anchorInfo struct {
		res      string    // designated release argument text ("item.pm")
		lastPos  token.Pos // last release/transfer of the root
		firstUse token.Pos
		deferred bool
	}
	roots := map[string]*anchorInfo{}

	// Collect release calls (and whether any is deferred) per resource
	// root, tracking only the designated resource argument.
	inDefer := map[ast.Node]bool{}
	inspectNoFuncLit(t.u.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			ast.Inspect(d, func(k ast.Node) bool {
				if c, ok := k.(*ast.CallExpr); ok {
					inDefer[c] = true
				}
				return true
			})
		}
		return true
	})
	// Deferred closures release too: include calls inside defer func(){...}.
	ast.Inspect(t.u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		argIdx, isRel := t.spec.releases[calleeName(call)]
		if !isRel || len(call.Args) == 0 {
			return true
		}
		if argIdx < 0 || argIdx >= len(call.Args) {
			argIdx = len(call.Args) - 1
		}
		arg := call.Args[argIdx]
		r := rootIdent(arg)
		if r == nil {
			return true
		}
		info := roots[r.Name]
		if info == nil {
			info = &anchorInfo{res: exprText(arg)}
			roots[r.Name] = info
		}
		if inDefer[call] {
			info.deferred = true
		}
		if call.End() > info.lastPos {
			info.lastPos = call.End()
		}
		return true
	})

	var diags []Diagnostic
	for root, info := range roots {
		if info.deferred || t.flagged[root] {
			continue
		}
		ev := &acqEvent{res: info.res, root: root}
		// Extend the anchor past the last ownership transfer of the root:
		// early exits between first use and the last point the unit still
		// owns the resource are the suspect region. Only simple statements
		// anchor — a compound (or the body block itself) ends long after
		// the transfer inside it happens.
		inspectNoFuncLit(t.u.body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ExprStmt, *ast.SendStmt, *ast.AssignStmt, *ast.GoStmt,
				*ast.DeferStmt, *ast.ReturnStmt, *ast.DeclStmt:
			default:
				return true
			}
			if t.escapes(n, ev) && n.End() > info.lastPos {
				info.lastPos = n.End()
			}
			return true
		})
		// First use of the root (its binding or first mention). A parameter
		// is owned from the top of the body. Compound statements don't
		// count — a mention deep inside one must not pull the region start
		// before the binding.
		if t.u.params[root] {
			info.firstUse = t.u.body.Pos()
		}
		inspectNoFuncLit(t.u.body, func(n ast.Node) bool {
			if info.firstUse != token.NoPos {
				return false
			}
			switch v := n.(type) {
			case *ast.ExprStmt, *ast.SendStmt, *ast.AssignStmt, *ast.GoStmt,
				*ast.DeferStmt, *ast.ReturnStmt, *ast.DeclStmt:
				if usesName(n, root) {
					info.firstUse = n.Pos()
				}
			case *ast.RangeStmt:
				// `for item := range ch` binds the root for the loop body.
				if usesName(v.Key, root) || usesName(v.Value, root) {
					info.firstUse = n.Pos()
				}
			}
			return true
		})
		if info.firstUse == token.NoPos {
			info.firstUse = t.u.body.Pos()
		}
		diags = append(diags, t.phaseBRegion(ev, info.firstUse, info.lastPos)...)
	}
	return diags
}

// phaseBRegion flags compounds between the first use and the release
// anchor that exit the function while the resource is owned and unreleased.
func (t *pairTracker) phaseBRegion(ev *acqEvent, firstUse, anchor token.Pos) []Diagnostic {
	var diags []Diagnostic
	var flaggedRanges [][2]token.Pos
	nested := func(n ast.Node) bool {
		for _, r := range flaggedRanges {
			if n.Pos() >= r[0] && n.End() <= r[1] {
				return true
			}
		}
		return false
	}
	inspectNoFuncLit(t.u.body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IfStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
		default:
			return true
		}
		if n.Pos() < firstUse || n.End() > anchor || nested(n) {
			return true
		}
		if t.containsRelease(n, ev) || t.escapes(n, ev) {
			return true
		}
		if v, ok := n.(*ast.IfStmt); ok {
			if _, isNil := t.nilGuard(v.Cond, ev); isNil {
				return true
			}
			if t.phaseBCondExempt(v, ev) {
				return true
			}
		}
		exit := firstExitScoped(n)
		if exit == nil {
			return true
		}
		flaggedRanges = append(flaggedRanges, [2]token.Pos{n.Pos(), n.End()})
		diags = append(diags, *ptr(t.f.diag(t.spec.analyzer, exit,
			"%s %s is %s later in %s but not on this early-exit path",
			t.spec.what, ev.res, t.spec.verb, t.u.name)))
		return false
	})
	return diags
}

// phaseBCondExempt mirrors the error-flag exemption: the if's condition
// branches on a flag whose latest assignment before the if also produced
// the resource (same-statement err/ok convention).
func (t *pairTracker) phaseBCondExempt(v *ast.IfStmt, ev *acqEvent) bool {
	if v.Cond == nil {
		return false
	}
	if v.Init != nil {
		// `if err := f(x); err != nil` where f does not take the resource:
		// unrelated guard; only exempt when f consumed nothing of ours —
		// handled by the escape check in the caller already.
		return false
	}
	pos := v.Pos()
	for name := range condIdents(v.Cond) {
		var last *ast.AssignStmt
		ast.Inspect(t.u.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Pos() >= pos {
				return true
			}
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name == name {
					if last == nil || as.Pos() > last.Pos() {
						last = as
					}
				}
			}
			return true
		})
		if last == nil {
			continue
		}
		for _, l := range last.Lhs {
			if exprText(l) == ev.res || exprText(l) == ev.root {
				return true
			}
		}
	}
	return false
}
