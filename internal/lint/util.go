package lint

import (
	"go/ast"
	"go/token"
)

// builtinFuncs are calls that never take ownership of their arguments:
// append/len over a resource's own fields is bookkeeping, not transfer.
var builtinFuncs = map[string]bool{
	"append": true, "cap": true, "clear": true, "copy": true,
	"delete": true, "len": true, "make": true, "max": true,
	"min": true, "new": true, "panic": true, "print": true,
	"println": true, "recover": true,
}

// inspect is ast.Inspect that tolerates a nil node. Every helper below that
// takes a node or an expression goes through it, so an optional child — a
// range statement's key, an if's init, a bare for's condition — can be
// handed over unchecked.
func inspect(n ast.Node, fn func(ast.Node) bool) {
	if n != nil {
		ast.Inspect(n, fn)
	}
}

// inspectNoFuncLit walks the subtree like inspect but does not descend into
// nested function literals (they are separate units).
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); m == nil || ok && m != n {
			return false
		}
		return fn(m)
	})
}

// exprText renders a compact dotted form of an expression: identifiers and
// selector chains come out as written ("o.cache.Unpin"), indexing and calls
// collapse to their base. Unrenderable shapes (nil included) yield "".
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprText(v.X)
		if base == "" {
			return v.Sel.Name
		}
		return base + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprText(v.Fun) + "()"
	}
	if x := unwrap(e); x != nil {
		return exprText(x)
	}
	return ""
}

// unwrap strips one layer that does not change which variable an expression
// is about — parentheses, dereference, a unary operator, indexing, a type
// assertion — or returns nil.
func unwrap(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return v.X
	case *ast.StarExpr:
		return v.X
	case *ast.UnaryExpr:
		return v.X
	case *ast.IndexExpr:
		return v.X
	case *ast.TypeAssertExpr:
		return v.X
	}
	return nil
}

// callee splits a call into the receiver/package expression (nil for a bare
// name) and the bare method or function name ("o.cache", "Unpin").
func callee(call *ast.CallExpr) (recv ast.Expr, name string) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return nil, f.Name
	case *ast.SelectorExpr:
		return f.X, f.Sel.Name
	case *ast.ParenExpr:
		return callee(&ast.CallExpr{Fun: f.X})
	}
	return nil, ""
}

func calleeName(call *ast.CallExpr) string {
	_, name := callee(call)
	return name
}

// rootIdent returns the leftmost identifier of a selector/index/deref
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for e != nil {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		default:
			e = unwrap(e)
		}
	}
	return nil
}

// usesName reports whether the subtree references the identifier name
// outside of struct-field selectors (x.name does not count; name.x does).
func usesName(n ast.Node, name string) bool {
	found := false
	inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.SelectorExpr:
			// Only the base expression can reference the variable; the
			// selector name itself is a field/method.
			found = found || condIdents(v.X)[name]
			return false
		case *ast.Ident:
			found = found || v.Name == name
		}
		return !found
	})
	return found
}

// condIdents returns the identifier names appearing in an expression.
func condIdents(e ast.Expr) map[string]bool {
	ids := map[string]bool{}
	inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids[id.Name] = true
		}
		return true
	})
	return ids
}

// isNilCompare recognizes `x == nil` / `x != nil` conditions against the
// given resource name and returns the comparison token.
func isNilCompare(cond ast.Expr, res string) (tok token.Token, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	match := func(e ast.Expr) bool { return exprText(e) == res }
	if (isNil(be.X) && match(be.Y)) || (isNil(be.Y) && match(be.X)) {
		return be.Op, true
	}
	return 0, false
}
