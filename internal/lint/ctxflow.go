package lint

import (
	"go/ast"
	"strings"
)

// CtxFlow enforces context propagation through the public API: an exported
// function that accepts a context.Context must actually thread it onward.
// Three shapes are flagged: (1) the ctx parameter is never used at all —
// the signature promises cancellation the body ignores; (2) the body
// manufactures a fresh context.Background()/TODO() even though the
// caller's ctx is in scope — the classic way a query outlives its
// disconnect; (3) the body calls plain F(...) when the same file declares
// a FContext(ctx, ...) variant — the cancellable path exists and is being
// bypassed. The one legal bypass is FContext itself calling F as its
// implementation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Run:  perUnit(ctxFlowUnit),
}

func ctxFlowUnit(u *unit) []Diagnostic {
	fd, ok := u.node.(*ast.FuncDecl)
	if !ok || !fd.Name.IsExported() {
		return nil
	}
	ctxName := ctxParamName(fd.Type)
	if ctxName == "" || ctxName == "_" {
		return nil
	}
	if !usesName(fd.Body, ctxName) {
		return []Diagnostic{u.diag("ctxflow", fd.Name,
			"%s accepts %s but never uses it — cancellation and deadlines are silently ignored", u.name, ctxName)}
	}
	// Names declared in this file: used to detect available FContext
	// variants for rule (3).
	declared := map[string]bool{}
	for _, d := range u.f.File.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			declared[fd.Name.Name] = true
		}
	}
	var diags []Diagnostic
calls:
	for _, c := range u.allCalls {
		// Rule 2: a fresh background context while the caller's is in scope.
		if c.recv == "context" && (c.name == "Background" || c.name == "TODO") {
			diags = append(diags, u.diag("ctxflow", c.call,
				"%s has %s in scope but builds context.%s — thread the caller's context instead", u.name, ctxName, c.name))
			continue
		}
		// Rule 3: F(...) called where FContext(ctx, ...) exists in this file.
		variant := c.name + "Context"
		if c.name == "" || strings.HasSuffix(c.name, "Context") || !declared[variant] || u.name == variant {
			continue
		}
		for _, a := range c.call.Args {
			if usesName(a, ctxName) {
				continue calls
			}
		}
		diags = append(diags, u.diag("ctxflow", c.call,
			"%s calls %s without %s although %s exists — the call cannot be cancelled", u.name, c.name, ctxName, variant))
	}
	return diags
}

// ctxParamName returns the name of the first parameter whose type is
// context.Context (or a bare Context identifier), or "".
func ctxParamName(ft *ast.FuncType) string {
	for _, field := range ft.Params.List {
		if !isContextType(field.Type) {
			continue
		}
		if len(field.Names) == 0 {
			return "_"
		}
		return field.Names[0].Name
	}
	return ""
}

func isContextType(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name == "context" && v.Sel.Name == "Context"
		}
	case *ast.Ident:
		return v.Name == "Context"
	}
	return false
}
