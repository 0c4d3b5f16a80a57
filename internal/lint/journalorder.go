package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// JournalOrder mechanizes the data-before-metadata rule of the durable
// catalog (DESIGN §10/§13): a journal append of a RecSegment record (or of
// the RecLoaded/RecLoadedGroup records older layouts journaled) claims
// "these column pages are on disk", so every call path that appends one must
// be dominated by the corresponding blob write. Two checks:
//
//  1. Ordering: a function that builds loaded-records and journals them is a
//     "loaded appender" (loadSegment). Every call site of such a function
//     must have a blob write (WriteBlob, directly or through a same-package
//     helper) positioned before it in the calling function — otherwise the
//     journal can claim pages a crash never persisted.
//  2. Lock discipline: every journal append must sit inside the
//     checkpoint-exclusion region — `defer t.journalLock()()` or an explicit
//     ckpt/ckptMu read-lock taken earlier in the same function — so a
//     checkpoint snapshot can never interleave with a mutate+append pair.
//
// The pass is package-scoped (RunProject) because the appender and its
// callers live in different files. Functions that only *build* loaded
// records without appending (the checkpoint snapshot) are exempt: they
// re-record pages that prior appends already proved durable.
var JournalOrder = &Analyzer{
	Name:       "journalorder",
	Doc:        "journal appends of loaded-records must be dominated by the blob write; appends must hold the checkpoint lock",
	Dirs:       []string{"internal/dbstore"},
	RunProject: runJournalOrder,
}

func runJournalOrder(files []*File) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range groupByPkg(files) {
		diags = append(diags, journalOrderPkg(pkg)...)
	}
	return diags
}

// groupByPkg buckets files by package directory in first-seen order.
func groupByPkg(files []*File) [][]*File {
	idx := map[string]int{}
	var groups [][]*File
	for _, f := range files {
		i, ok := idx[f.Pkg]
		if !ok {
			i = len(groups)
			idx[f.Pkg] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], f)
	}
	return groups
}

// pkgUnit is one function body with its containing file.
type pkgUnit struct {
	f *File
	u unit
}

func journalOrderPkg(files []*File) []Diagnostic {
	var units []pkgUnit
	for _, f := range files {
		for _, u := range funcUnits(f) {
			units = append(units, pkgUnit{f, u})
		}
	}

	// Blob writers: direct WriteBlob callers, then the same-package helpers
	// that reach one (fixpoint over callee names; literals excluded from the
	// name table since they cannot be called by name).
	blobWriter := map[string]bool{}
	declared := map[string]bool{}
	for _, pu := range units {
		if _, isDecl := pu.u.node.(*ast.FuncDecl); isDecl {
			declared[pu.u.name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pu := range units {
			if _, isDecl := pu.u.node.(*ast.FuncDecl); !isDecl || blobWriter[pu.u.name] {
				continue
			}
			hit := false
			inspectNoFuncLit(pu.u.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !hit {
					if _, name := callee(call); name == "WriteBlob" || (blobWriter[name] && declared[name]) {
						hit = true
					}
				}
				return !hit
			})
			if hit {
				blobWriter[pu.u.name] = true
				changed = true
			}
		}
	}

	// Loaded appenders: declarations that build a loaded-record literal and
	// feed a journal append in the same body.
	loadedAppender := map[string]bool{}
	for _, pu := range units {
		if _, isDecl := pu.u.node.(*ast.FuncDecl); !isDecl {
			continue
		}
		if buildsLoadedRecord(pu.u.body) && hasJournalAppend(pu.f, pu.u) {
			loadedAppender[pu.u.name] = true
		}
	}

	var diags []Diagnostic
	for _, pu := range units {
		diags = append(diags, journalOrderCallers(pu.f, pu.u, loadedAppender, blobWriter)...)
		diags = append(diags, journalLockDiscipline(pu.f, pu.u)...)
	}
	return diags
}

// buildsLoadedRecord reports whether the body constructs a store.Record
// composite literal whose Type field is RecSegment, RecLoaded or
// RecLoadedGroup.
func buildsLoadedRecord(body *ast.BlockStmt) bool {
	found := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || found {
			return !found
		}
		if t := exprText(cl.Type); t != "store.Record" && t != "Record" {
			return true
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Type" {
				continue
			}
			v := exprText(kv.Value)
			if strings.HasSuffix(v, "RecSegment") || strings.HasSuffix(v, "RecLoaded") || strings.HasSuffix(v, "RecLoadedGroup") {
				found = true
			}
		}
		return !found
	})
	return found
}

// journalAppendCalls returns the positions of journal-append calls in the
// unit: journalAppend (the blessed wrapper) and Append on a journal-typed
// receiver (a `.journal` field or a variable assigned from one).
func journalAppendCalls(f *File, u unit) []ast.Node {
	// Variables bound to the journal (j := s.journal).
	journalVars := map[string]bool{}
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if t := exprText(as.Rhs[i]); t == "journal" || strings.HasSuffix(t, ".journal") {
				journalVars[id.Name] = true
			}
		}
		return true
	})
	var calls []ast.Node
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name := callee(call)
		switch {
		case name == "journalAppend":
			calls = append(calls, call)
		case name == "Append" && (strings.HasSuffix(recv, ".journal") || journalVars[recv]):
			calls = append(calls, call)
		}
		return true
	})
	return calls
}

func hasJournalAppend(f *File, u unit) bool {
	return len(journalAppendCalls(f, u)) > 0
}

// journalOrderCallers flags call sites of loaded appenders with no blob
// write positioned before them in the calling unit.
func journalOrderCallers(f *File, u unit, loadedAppender, blobWriter map[string]bool) []Diagnostic {
	if loadedAppender[u.name] {
		// The appender's own body is the abstraction boundary; obligations
		// attach to its callers.
		return nil
	}
	var writes []token.Pos
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, name := callee(call); name == "WriteBlob" || blobWriter[name] {
				writes = append(writes, call.End())
			}
		}
		return true
	})
	var diags []Diagnostic
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, name := callee(call)
		if !loadedAppender[name] {
			return true
		}
		for _, w := range writes {
			if w < call.Pos() {
				return true
			}
		}
		diags = append(diags, f.diag("journalorder", call,
			"%s journals a loaded-record with no preceding blob write in %s — the journal would claim pages a crash never persisted (data-before-metadata, DESIGN §10/§13)", name, u.name))
		return true
	})
	return diags
}

// journalLockDiscipline requires every journal append to follow a
// checkpoint-exclusion acquisition in the same unit.
func journalLockDiscipline(f *File, u unit) []Diagnostic {
	if u.name == "journalAppend" || u.name == "journalLock" {
		// The blessed wrapper pair: callers hold the lock around them.
		return nil
	}
	appends := journalAppendCalls(f, u)
	if len(appends) == 0 {
		return nil
	}
	var acquires []token.Pos
	inspectNoFuncLit(u.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			// defer t.journalLock()() — the argument call runs at the defer
			// statement, acquiring the region there.
			if inner, ok := v.Call.Fun.(*ast.CallExpr); ok {
				if _, name := callee(inner); name == "journalLock" {
					acquires = append(acquires, v.End())
				}
			}
		case *ast.CallExpr:
			recv, name := callee(v)
			if (name == "RLock" || name == "Lock") && strings.Contains(recv, "ckpt") {
				acquires = append(acquires, v.End())
			}
		}
		return true
	})
	var diags []Diagnostic
	for _, ap := range appends {
		held := false
		for _, a := range acquires {
			if a < ap.Pos() {
				held = true
				break
			}
		}
		if !held {
			diags = append(diags, f.diag("journalorder", ap,
				"journal append outside the checkpoint-exclusion region — take journalLock()/ckptMu before appending in %s so a snapshot cannot interleave", u.name))
		}
	}
	return diags
}
