package lint

import (
	"go/ast"
	"go/token"
)

// DecodeGuard is the compile-time form of the PR 7 fuzz finding: a
// count or length decoded from wire or log bytes reached make() unchecked
// and asked for 67TB. Any integer produced by a raw varint/fixed-width
// decode (wire.Dec's Uvar/Ivar, wire.ParseFrameHeader's length,
// binary.Uvarint/Varint, binary.LittleEndian/BigEndian.UintN) is tainted;
// passing it — directly or
// through a pure conversion chain — to make() or to an append capacity is a
// finding unless a bounds comparison on the same variable sits between the
// decode and the allocation, or the use site itself clamps it with min().
//
// The blessed route is wire.Dec.Count(limit, what), which bounds and fails
// in one step; its results are untainted. Taint tracking is per-function
// and positional — assignment-based with no aliasing — which matches how
// every codec in wire/store/cluster/dbstore/engine is written (straight-line
// decode loops over a byte slice).
var DecodeGuard = &Analyzer{
	Name: "decodeguard",
	Run:  perUnit(decodeGuardUnit),
}

// taintSources are the raw decode entry points, keyed by callee name. The
// value is the index of the tainted result in a multi-assign (Uvarint and
// Varint return (value, n); only the value is a wire-controlled count).
var taintSources = map[string]int{
	"Uvar":             0,
	"Ivar":             0,
	"ParseFrameHeader": 0,
	"Uvarint":          0,
	"Varint":           0,
	"Uint16":           0,
	"Uint32":           0,
	"Uint64":           0,
}

func decodeGuardUnit(u *unit) []Diagnostic {
	// Where each variable last received a raw decoded value.
	taints := map[string]token.Pos{}
	for _, as := range u.assigns {
		if len(as.Rhs) == 1 {
			if idx, ok := taintResult(as.Rhs[0]); ok && idx < len(as.Lhs) {
				if id, isID := as.Lhs[idx].(*ast.Ident); isID && id.Name != "_" {
					taints[id.Name] = as.End()
				}
			}
		}
		// A plain reassignment from an untainted source clears the
		// variable (e.g. n = len(buf) after the decode).
		if len(as.Rhs) == len(as.Lhs) {
			for i, lhs := range as.Lhs {
				if id, isID := lhs.(*ast.Ident); isID {
					if _, tainted := taintResult(as.Rhs[i]); !tainted && as.Pos() > taints[id.Name] {
						delete(taints, id.Name)
					}
				}
			}
		}
	}
	// A guard is an if or for condition comparing the variable, written
	// between the decode and the allocation.
	guarded := func(name string, usePos token.Pos) bool {
		for _, cond := range u.conds {
			if cond.Pos() > taints[name] && cond.Pos() < usePos && boundComparisons(cond)[name] {
				return true
			}
		}
		return false
	}
	// Allocation sinks: make's size arguments. append cannot over-allocate
	// from a count; the risky shape is make-then-append.
	var diags []Diagnostic
	for _, c := range u.calls {
		if c.recv != "" || c.name != "make" || len(c.call.Args) < 2 {
			continue
		}
		for _, arg := range c.call.Args[1:] {
			id := conversionRoot(arg)
			if id == nil {
				continue
			}
			if at, tainted := taints[id.Name]; tainted && id.Pos() >= at && !guarded(id.Name, c.call.Pos()) {
				diags = append(diags, u.diag("decodeguard", c.call,
					"decoded count %q reaches make() without a bounds check — a hostile length allocates unbounded memory (use wire.Dec.Count or guard it first)", id.Name))
			}
		}
	}
	return diags
}

// taintResult reports whether the expression yields a raw decoded integer
// and which result index carries it. Pure conversions (int(...), uint32(...))
// propagate taint.
func taintResult(e ast.Expr) (idx int, ok bool) {
	switch v := e.(type) {
	case *ast.CallExpr:
		recv, name := callee(v)
		// min/max clamp at the source; a clamped value is bounded.
		if recv == nil && (name == "min" || name == "max") {
			return 0, false
		}
		if idx, ok := taintSources[name]; ok {
			return idx, true
		}
		// Conversion wrapper like int(d.Uvar()) — a call with one arg whose
		// fun is a bare type-ish identifier.
		if id, isID := v.Fun.(*ast.Ident); isID && len(v.Args) == 1 && builtinConvs[id.Name] {
			if _, inner := taintResult(v.Args[0]); inner {
				return 0, true
			}
		}
	case *ast.ParenExpr:
		return taintResult(v.X)
	}
	return 0, false
}

var builtinConvs = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "byte": true, "rune": true,
}

// conversionRoot unwraps conversion/paren layers around an identifier, or
// returns nil when the expression is anything more complex. min(n, k) counts
// as clamped, so it unwraps to nil.
func conversionRoot(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			id, isID := v.Fun.(*ast.Ident)
			if !isID || len(v.Args) != 1 || !builtinConvs[id.Name] {
				return nil
			}
			e = v.Args[0]
		default:
			return nil
		}
	}
}

// boundComparisons returns the identifier names compared against something
// with a relational operator anywhere in the condition.
func boundComparisons(cond ast.Expr) map[string]bool {
	names := map[string]bool{}
	inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, side := range []ast.Expr{be.X, be.Y} {
				if id := conversionRoot(side); id != nil {
					names[id.Name] = true
				}
			}
		}
		return true
	})
	return names
}
