package lint

import (
	"go/ast"
	"go/token"
)

// CRCFlow guards the error results of the CRC-verifying decode functions: a
// page or frame whose checksum failed must never be treated as data, so the
// error from these calls may not be discarded with `_`, dropped as a bare
// statement, or captured and then shadowed before it is read — even inside a
// defer, where "cleanup can't fail" habits drop verification results.
//
// The verified-decode set is the project's checksum boundary: openPage
// (dbstore column-group pages), DecodeRecord / decodeFrames' record path
// (manifest journal), DecodeMessage (cluster exec frames), DecodePartial /
// DecodeVector (serialized engine partials), and LoadFleetConfig (sealed
// fleet blob). All of them return an error whose only cause, besides
// truncation, is a checksum mismatch.
var CRCFlow = &Analyzer{
	Name: "crcflow",
	Doc:  "errors from CRC-verifying decode functions may not be discarded or shadowed",
	Dirs: []string{"internal/store", "internal/dbstore", "internal/cluster", "internal/server", "internal/queryapi", "internal/engine"},
	Run:  runCRCFlow,
}

// crcFuncs name every decode entry point whose error carries a checksum
// verdict.
var crcFuncs = map[string]bool{
	"openPage":        true,
	"DecodeRecord":    true,
	"DecodeMessage":   true,
	"DecodePartial":   true,
	"DecodeVector":    true,
	"LoadFleetConfig": true,
}

func runCRCFlow(f *File) []Diagnostic {
	var diags []Diagnostic
	for _, u := range funcUnits(f) {
		diags = append(diags, crcFlowUnit(f, u)...)
	}
	return diags
}

func crcFlowUnit(f *File, u unit) []Diagnostic {
	var diags []Diagnostic
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if _, name := callee(call); crcFuncs[name] {
					diags = append(diags, f.diag("crcflow", v,
						"result of %s discarded — its error is the CRC verdict; check it or the corruption is silent", name))
				}
			}
		case *ast.DeferStmt:
			if _, name := callee(v.Call); crcFuncs[name] {
				diags = append(diags, f.diag("crcflow", v,
					"deferred %s discards its error — a dropped verification error in defer is still a dropped verification error", name))
			}
		case *ast.AssignStmt:
			diags = append(diags, crcAssign(f, u, v)...)
		}
		return true
	})
	return diags
}

// crcAssign checks one assignment whose RHS is a verified-decode call: the
// error (last LHS) must not be blank, and if captured into a variable that
// variable must be read before it is overwritten or goes out of scope.
func crcAssign(f *File, u unit, as *ast.AssignStmt) []Diagnostic {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	_, name := callee(call)
	if !crcFuncs[name] {
		return nil
	}
	last := as.Lhs[len(as.Lhs)-1]
	id, ok := last.(*ast.Ident)
	if !ok {
		return nil
	}
	if id.Name == "_" {
		return []Diagnostic{f.diag("crcflow", as,
			"error from %s assigned to _ — the CRC verdict must be checked", name)}
	}
	if errReadBeforeOverwrite(f, u, id, as.End()) {
		return nil
	}
	return []Diagnostic{f.diag("crcflow", as,
		"error from %s captured in %q but never read before it is overwritten or dropped", name, id.Name)}
}

// errReadBeforeOverwrite reports whether the captured error identifier is
// read after pos and before any reassignment to it. The scan is positional
// over the whole unit body, which matches the straight-line decode flows the
// codebase uses at its checksum boundaries.
func errReadBeforeOverwrite(f *File, u unit, errID *ast.Ident, pos token.Pos) bool {
	firstUse, firstClobber := token.Pos(-1), token.Pos(-1)
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok && lid.Pos() > pos && f.sameIdent(lid, errID) {
					if firstClobber == token.Pos(-1) || lid.Pos() < firstClobber {
						firstClobber = lid.Pos()
					}
				}
			}
			// RHS and other subtrees still count as reads; fall through via
			// the generic ident case on deeper inspect visits.
		case *ast.Ident:
			if v.Pos() <= pos || v == errID {
				return true
			}
			if !f.sameIdent(v, errID) {
				return true
			}
			if isAssignTarget(u.body, v) {
				return true
			}
			if firstUse == token.Pos(-1) || v.Pos() < firstUse {
				firstUse = v.Pos()
			}
		}
		return true
	})
	if firstUse == token.Pos(-1) {
		return false
	}
	return firstClobber == token.Pos(-1) || firstUse <= firstClobber
}

// isAssignTarget reports whether the identifier occurrence is an assignment
// LHS inside the body (a write, not a read).
func isAssignTarget(body *ast.BlockStmt, id *ast.Ident) bool {
	target := false
	ast.Inspect(body, func(n ast.Node) bool {
		if target {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if lhs == id {
					target = true
				}
			}
		}
		return true
	})
	return target
}
