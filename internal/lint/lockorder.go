package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the static mutex-acquisition graph across every package
// of the run and rejects two shapes locksend's single-function view
// cannot see:
//
//  1. Ordering cycles: an edge A→B is recorded whenever lock B is acquired —
//     directly or through any resolvable call chain — inside a critical
//     section of lock A. A cycle (ckptMu taken under mu in one function, mu
//     under ckptMu in another) is a latent deadlock and every edge on it is
//     reported.
//  2. Channel operations under two locks: a call made while ≥2 distinct
//     locks are held, to a function that (transitively) performs a channel
//     send/receive/select, stalls both critical sections on a peer that may
//     need either lock.
//
// Lock identity is type-qualified ("dbstore.Store.ckptMu") via best-effort
// local type resolution, with two project idioms folded in: region-opener
// functions (`defer t.journalLock()()` acquires ckpt for the rest of the
// function) and lock aliasing through struct fields (`ckpt: &s.ckptMu` makes
// Table.ckpt and Store.ckptMu the same node). Critical sections are
// the fact table's regions, same as locksend: Lock to first matching Unlock,
// deferred unlock to end of function. Function literals are analyzed as their own
// units (their locks do not leak into the enclosing function's summary —
// they run when invoked, not where written).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

var unlockNames = map[string]bool{"Unlock": true, "RUnlock": true}

// loFunc is one analyzed function body with its summary state.
type loFunc struct {
	*unit
	pkg      string // package base name
	recvType string // receiver type name for method decls, "" otherwise

	acquires []loAcquire
	calls    []loCall
	ops      []ast.Node // channel operations

	lockset map[string]bool // nodes this function may acquire, transitively
	mayChan bool            // performs a channel op, transitively
}

// loAcquire is one lock acquisition: the graph node and its region.
type loAcquire struct {
	node string
	lockRegion
}

// loCall is a call site with enough shape to resolve candidates.
type loCall struct {
	at       ast.Node
	name     string
	recvType string // resolved type of a plain-ident receiver, "" otherwise
}

func runLockOrder(units []*unit) []Diagnostic {
	g := &lockGraph{aliases: map[string]string{}, openers: map[string]string{}}
	var last *File
	for _, u := range units {
		if u.f != last {
			g.collectAliases(u.f)
			last = u.f
		}
		lf := &loFunc{unit: u, pkg: pkgBase(u.f.Pkg), lockset: map[string]bool{}}
		if fd, ok := u.node.(*ast.FuncDecl); ok {
			lf.recvType = recvTypeName(fd)
		}
		g.funcs = append(g.funcs, lf)
	}
	g.indexDecls()
	for _, lf := range g.funcs {
		g.collectBody(lf)
	}
	g.fixpoint()
	return append(g.edgeFindings(), g.chanFindings()...)
}

type lockEdge struct {
	from, to string
	at       ast.Node
	in       *unit
}

type lockGraph struct {
	funcs   []*loFunc
	aliases map[string]string // node → node it aliases (ckpt: &s.ckptMu)
	openers map[string]string // "pkg.funcName" → node acquired by the opener
	byName  map[string][]*loFunc
	byRecv  map[string][]*loFunc // "pkg.Type.name"
	edges   []lockEdge
}

func pkgBase(pkg string) string { return pkg[strings.LastIndex(pkg, "/")+1:] }

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

func namedTypeName(t types.Type) string {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v.Obj().Name()
		default:
			return ""
		}
	}
}

// nodeFor names the lock behind the receiver expression of a
// Lock/Unlock-class call: type-qualified when the root identifier resolves,
// package-qualified expression text otherwise, with field aliases folded.
func (g *lockGraph) nodeFor(f *File, e ast.Expr) string {
	raw := g.rawNode(f, e)
	for i := 0; raw != "" && i < 8; i++ { // alias chains are tiny; 8 bounds a cycle
		next, ok := g.aliases[raw]
		if !ok {
			return raw
		}
		raw = next
	}
	return raw
}

func (g *lockGraph) rawNode(f *File, e ast.Expr) string {
	root := rootIdent(e)
	txt := exprText(e)
	if root == nil || txt == "" {
		return ""
	}
	base := pkgBase(f.Pkg)
	rest := strings.TrimPrefix(txt, root.Name)
	if rest != "" {
		if obj := f.Info.ObjectOf(root); obj != nil {
			if tn := namedTypeName(obj.Type()); tn != "" {
				return base + "." + tn + rest
			}
		}
	}
	return base + "." + txt
}

// collectAliases records `field: &x.y` composite-literal entries and
// `a.field = &x.y` assignments: the field node is the same lock as the
// target node.
func (g *lockGraph) collectAliases(f *File) {
	record := func(from, to string) {
		if from != "" && to != "" && from != to {
			g.aliases[from] = to
		}
	}
	ast.Inspect(f.File, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			tn := exprText(v.Type)
			tn = tn[strings.LastIndex(tn, ".")+1:] // pkg.Type → Type
			if tn == "" {
				return true
			}
			for _, el := range v.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if ue, ok := kv.Value.(*ast.UnaryExpr); ok && ue.Op == token.AND {
					record(pkgBase(f.Pkg)+"."+tn+"."+key.Name, g.rawNode(f, ue.X))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if ue, ok := v.Rhs[i].(*ast.UnaryExpr); ok && ue.Op == token.AND {
					record(g.rawNode(f, sel), g.rawNode(f, ue.X))
				}
			}
		}
		return true
	})
}

func (g *lockGraph) indexDecls() {
	g.byName = map[string][]*loFunc{}
	g.byRecv = map[string][]*loFunc{}
	for _, lf := range g.funcs {
		if !lf.isDecl() {
			continue
		}
		g.byName[lf.name] = append(g.byName[lf.name], lf)
		if lf.recvType != "" {
			key := lf.pkg + "." + lf.recvType + "." + lf.name
			g.byRecv[key] = append(g.byRecv[key], lf)
		}
		// Region openers: acquire a lock and return its unlock method value.
		if node := g.openerNode(lf); node != "" {
			g.openers[lf.pkg+"."+lf.name] = node
		}
	}
}

// openerNode recognizes the journalLock idiom: the body takes a lock and
// returns the matching unlock as a method value, handing the critical
// section to the caller.
func (g *lockGraph) openerNode(lf *loFunc) string {
	for _, c := range lf.unit.calls {
		if _, isLock := lockNames[c.name]; !isLock || c.recvExpr == nil {
			continue
		}
		// The first lock call decides.
		for _, ret := range lf.returns {
			for _, r := range ret.Results {
				if sel, ok := r.(*ast.SelectorExpr); ok && unlockNames[sel.Sel.Name] && exprText(sel.X) == c.recv {
					return g.nodeFor(lf.f, c.recvExpr)
				}
			}
		}
		break
	}
	return ""
}

// collectBody reads one unit's acquisitions, calls and channel operations
// off its fact table. What stands inside a select statement — locks and
// calls in its case bodies included — is not collected: the select is the
// one channel operation.
func (g *lockGraph) collectBody(lf *loFunc) {
	u := lf.unit
	inSelect := func(n ast.Node) bool { return u.inSelect(n, token.NoPos, u.body.End()) }
	for _, r := range u.regions {
		node := g.openers[lf.pkg+"."+r.opener]
		if r.lock != "" {
			node = g.nodeFor(u.f, r.recvExpr)
		}
		if node != "" && !inSelect(r.at) {
			lf.acquires = append(lf.acquires, loAcquire{node, r})
		}
	}
	for _, op := range u.chanOps {
		if !inSelect(op) {
			lf.ops = append(lf.ops, op)
		}
	}
	for _, c := range u.calls {
		_, isLock := lockNames[c.name]
		if c.inDefer || inSelect(c.call) || c.name == "" || builtinFuncs[c.name] || c.recvExpr != nil && (isLock || unlockNames[c.name]) {
			continue
		}
		call := loCall{at: c.call, name: c.name}
		if id, ok := c.recvExpr.(*ast.Ident); ok {
			if obj := u.f.Info.ObjectOf(id); obj != nil {
				call.recvType = namedTypeName(obj.Type())
			}
		}
		lf.calls = append(lf.calls, call)
	}
}

// resolve returns the candidate declarations a call may reach: the exact
// (package, receiver type, name) method when the receiver is a plain ident
// with a resolvable named type, otherwise every analyzed declaration sharing
// the name — the conservative direction for a graph that must find cycles.
func (g *lockGraph) resolve(lf *loFunc, c loCall) []*loFunc {
	if c.recvType != "" {
		if ds := g.byRecv[lf.pkg+"."+c.recvType+"."+c.name]; len(ds) > 0 {
			return ds
		}
	}
	return g.byName[c.name]
}

// fixpoint propagates locksets and channel-op reachability through the call
// graph until stable.
func (g *lockGraph) fixpoint() {
	for _, lf := range g.funcs {
		for _, a := range lf.acquires {
			lf.lockset[a.node] = true
		}
		lf.mayChan = len(lf.ops) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, lf := range g.funcs {
			for _, c := range lf.calls {
				for _, callee := range g.resolve(lf, c) {
					for node := range callee.lockset {
						if !lf.lockset[node] {
							lf.lockset[node] = true
							changed = true
						}
					}
					if callee.mayChan && !lf.mayChan {
						lf.mayChan = true
						changed = true
					}
				}
			}
		}
	}
}

// heldAt returns the distinct lock nodes whose critical sections cover pos.
func heldAt(lf *loFunc, pos token.Pos) []string {
	var held []string
	seen := map[string]bool{}
	for _, a := range lf.acquires {
		if !seen[a.node] && pos > a.start && pos <= a.end {
			seen[a.node] = true
			held = append(held, a.node)
		}
	}
	sort.Strings(held)
	return held
}

// edgeFindings builds the acquisition graph and reports every edge on a
// cycle.
func (g *lockGraph) edgeFindings() []Diagnostic {
	seen := map[string]bool{}
	addEdge := func(from, to string, at ast.Node, in *unit) {
		if from == to {
			return // re-acquisition of the same node is pinbalance/runtime territory
		}
		key := from + "→" + to
		if seen[key] {
			return
		}
		seen[key] = true
		g.edges = append(g.edges, lockEdge{from: from, to: to, at: at, in: in})
	}
	for _, lf := range g.funcs {
		for _, a := range lf.acquires {
			// Direct nested acquisitions.
			for _, b := range lf.acquires {
				if b.at.Pos() > a.start && b.at.Pos() <= a.end {
					addEdge(a.node, b.node, b.at, lf.unit)
				}
			}
			// Acquisitions reached through calls inside the section.
			for _, c := range lf.calls {
				if c.at.Pos() <= a.start || c.at.Pos() > a.end {
					continue
				}
				for _, callee := range g.resolve(lf, c) {
					for node := range callee.lockset {
						addEdge(a.node, node, c.at, lf.unit)
					}
				}
			}
		}
	}
	adj := map[string][]string{}
	for _, e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var diags []Diagnostic
	for _, e := range g.edges {
		if reaches(adj, e.to, e.from) {
			diags = append(diags, e.in.diag("lockorder", e.at,
				"lock order cycle: %s is acquired while holding %s, but elsewhere %s is (transitively) acquired while holding %s — fix one ordering", e.to, e.from, e.from, e.to))
		}
	}
	return diags
}

func reaches(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, adj[n]...)
	}
	return false
}

// chanFindings reports channel operations — direct or reached through a call
// — performed while two or more distinct locks are held.
func (g *lockGraph) chanFindings() []Diagnostic {
	var diags []Diagnostic
	for _, lf := range g.funcs {
		for _, op := range lf.ops {
			if held := heldAt(lf, op.Pos()); len(held) >= 2 {
				diags = append(diags, lf.diag("lockorder", op,
					"channel operation while holding %s — either lock's owner can be the blocked peer", strings.Join(held, " and ")))
			}
		}
		for _, c := range lf.calls {
			held := heldAt(lf, c.at.Pos())
			if len(held) < 2 {
				continue
			}
			for _, callee := range g.resolve(lf, c) {
				if callee.mayChan {
					diags = append(diags, lf.diag("lockorder", c.at,
						"call to %s performs channel operations while %s are held — invisible to locksend, still a deadlock shape", c.name, strings.Join(held, " and ")))
					break
				}
			}
		}
	}
	return diags
}
