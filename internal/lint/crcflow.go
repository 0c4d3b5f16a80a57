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
	Run:  perUnit(crcFlowUnit),
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

func crcFlowUnit(u *unit) []Diagnostic {
	var diags []Diagnostic
	for _, c := range u.calls {
		if !crcFuncs[c.name] {
			continue
		}
		switch p := c.parent.(type) {
		case *ast.ExprStmt:
			diags = append(diags, u.diag("crcflow", p,
				"result of %s discarded — its error is the CRC verdict; check it or the corruption is silent", c.name))
		case *ast.DeferStmt:
			diags = append(diags, u.diag("crcflow", p,
				"deferred %s discards its error — a dropped verification error in defer is still a dropped verification error", c.name))
		case *ast.AssignStmt:
			// The error (last LHS) must not be blank, and if captured into
			// a variable that variable must be read before it is
			// overwritten or goes out of scope.
			id, ok := p.Lhs[len(p.Lhs)-1].(*ast.Ident)
			switch {
			case len(p.Rhs) != 1 || !ok:
			case id.Name == "_":
				diags = append(diags, u.diag("crcflow", p,
					"error from %s assigned to _ — the CRC verdict must be checked", c.name))
			case !u.readBeforeOverwrite(id, p.End()):
				diags = append(diags, u.diag("crcflow", p,
					"error from %s captured in %q but never read before it is overwritten or dropped", c.name, id.Name))
			}
		}
	}
	return diags
}

// readBeforeOverwrite reports whether the captured error identifier is read
// after pos and before any reassignment to it. The scan is positional over
// the whole unit body, which matches the straight-line decode flows the
// codebase uses at its checksum boundaries.
func (u *unit) readBeforeOverwrite(errID *ast.Ident, pos token.Pos) bool {
	written := map[*ast.Ident]bool{}
	firstClobber := token.NoPos
	for _, as := range u.assigns {
		for _, lhs := range as.Lhs {
			if lid, ok := lhs.(*ast.Ident); ok {
				written[lid] = true
				if firstClobber == token.NoPos && lid.Pos() > pos && u.f.sameIdent(lid, errID) {
					firstClobber = lid.Pos()
				}
			}
		}
	}
	firstUse := token.NoPos
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && firstUse == token.NoPos && id.Pos() > pos && !written[id] && u.f.sameIdent(id, errID) {
			firstUse = id.Pos()
		}
		return true
	})
	return firstUse != token.NoPos && (firstClobber == token.NoPos || firstUse <= firstClobber)
}
