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
	Doc:  "wire/log-decoded counts must pass a bounds check before reaching make/append capacity",
	Dirs: []string{"internal/wire", "internal/store", "internal/dbstore", "internal/cluster", "internal/engine"},
	Run:  runDecodeGuard,
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

func runDecodeGuard(f *File) []Diagnostic {
	var diags []Diagnostic
	for _, u := range funcUnits(f) {
		diags = append(diags, decodeGuardUnit(f, u)...)
	}
	return diags
}

// taintedVar records where a variable last received a raw decoded value.
type taintedVar struct {
	id  *ast.Ident
	pos token.Pos
}

func decodeGuardUnit(f *File, u unit) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: taint assignments and guard positions.
	taints := map[string]taintedVar{}
	var guards []struct {
		name string
		pos  token.Pos
	}
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Rhs) == 1 {
				if idx, ok := taintResult(v.Rhs[0]); ok && idx < len(v.Lhs) {
					if id, isID := v.Lhs[idx].(*ast.Ident); isID && id.Name != "_" {
						taints[id.Name] = taintedVar{id: id, pos: v.End()}
					}
				}
			}
			// A plain reassignment from an untainted source clears the
			// variable (e.g. n = len(buf) after the decode).
			if len(v.Rhs) == len(v.Lhs) {
				for i, lhs := range v.Lhs {
					id, isID := lhs.(*ast.Ident)
					if !isID {
						continue
					}
					if _, tainted := taintResult(v.Rhs[i]); !tainted {
						if tv, ok := taints[id.Name]; ok && v.Pos() > tv.pos {
							delete(taints, id.Name)
						}
					}
				}
			}
		case *ast.IfStmt:
			for name := range boundComparisons(v.Cond) {
				guards = append(guards, struct {
					name string
					pos  token.Pos
				}{name, v.Cond.Pos()})
			}
		case *ast.ForStmt:
			for name := range boundComparisons(v.Cond) {
				guards = append(guards, struct {
					name string
					pos  token.Pos
				}{name, v.Cond.Pos()})
			}
		}
		return true
	})
	if len(taints) == 0 {
		return nil
	}

	guarded := func(name string, taintPos, usePos token.Pos) bool {
		for _, g := range guards {
			if g.name == name && g.pos > taintPos && g.pos < usePos {
				return true
			}
		}
		return false
	}

	// Pass 2: allocation sinks.
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name := callee(call)
		var sizeArgs []ast.Expr
		switch {
		case recv == "" && name == "make" && len(call.Args) > 1:
			sizeArgs = call.Args[1:]
		case recv == "" && name == "append" && len(call.Args) > 1:
			// append itself cannot over-allocate from a count; the risky
			// shape is make-then-append, covered by the make case.
			return true
		default:
			return true
		}
		for _, arg := range sizeArgs {
			id := conversionRoot(arg)
			if id == nil {
				continue
			}
			tv, tainted := taints[id.Name]
			if !tainted || id.Pos() < tv.pos {
				continue
			}
			if guarded(id.Name, tv.pos, call.Pos()) {
				continue
			}
			diags = append(diags, f.diag("decodeguard", call,
				"decoded count %q reaches make() without a bounds check — a hostile length allocates unbounded memory (use wire.Dec.Count or guard it first)", id.Name))
		}
		return true
	})
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
		if recv == "" && (name == "min" || name == "max") {
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
	if cond == nil {
		return names
	}
	ast.Inspect(cond, func(n ast.Node) bool {
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
