package lint

import (
	"go/ast"
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
// The pass reads a package at a time because the appender and its callers
// live in different files. Functions that only *build* loaded records
// without appending (the checkpoint snapshot) are exempt: they re-record
// pages that prior appends already proved durable.
var JournalOrder = &Analyzer{
	Name: "journalorder",
	Dirs: []string{"internal/dbstore"},
	Run:  runJournalOrder,
}

func runJournalOrder(units []*unit) []Diagnostic {
	var diags []Diagnostic
	for start, end := 0, 0; start < len(units); start = end {
		for end < len(units) && units[end].f.Pkg == units[start].f.Pkg {
			end++
		}
		diags = append(diags, journalOrderPkg(units[start:end])...)
	}
	return diags
}

func journalOrderPkg(units []*unit) []Diagnostic {
	// Blob writers: direct WriteBlob callers, then the same-package helpers
	// that reach one (fixpoint over callee names; literals excluded from the
	// name table since they cannot be called by name).
	blobWriter := map[string]bool{"WriteBlob": true}
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			if !u.isDecl() || blobWriter[u.name] {
				continue
			}
			for _, c := range u.calls {
				if blobWriter[c.name] {
					blobWriter[u.name], changed = true, true
					break
				}
			}
		}
	}

	// Loaded appenders: declarations that build a loaded-record literal and
	// feed a journal append in the same body.
	loadedAppender := map[string]bool{}
	for _, u := range units {
		if u.isDecl() && buildsLoadedRecord(u.body) && len(journalAppendCalls(u)) > 0 {
			loadedAppender[u.name] = true
		}
	}

	var diags []Diagnostic
	for _, u := range units {
		diags = append(diags, journalOrderCallers(u, loadedAppender, blobWriter)...)
		diags = append(diags, journalLockDiscipline(u)...)
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

// journalAppendCalls returns the journal-append calls in the unit:
// journalAppend (the blessed wrapper) and Append on a journal-typed receiver
// (a `.journal` field or a variable assigned from one).
func journalAppendCalls(u *unit) []*ast.CallExpr {
	// Variables bound to the journal (j := s.journal).
	journalVars := map[string]bool{}
	for _, as := range u.assigns {
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && len(as.Lhs) == len(as.Rhs) {
				if t := exprText(as.Rhs[i]); t == "journal" || strings.HasSuffix(t, ".journal") {
					journalVars[id.Name] = true
				}
			}
		}
	}
	var calls []*ast.CallExpr
	for _, c := range u.calls {
		if c.name == "journalAppend" || c.name == "Append" && (strings.HasSuffix(c.recv, ".journal") || journalVars[c.recv]) {
			calls = append(calls, c.call)
		}
	}
	return calls
}

// journalOrderCallers flags call sites of loaded appenders with no blob
// write positioned before them in the calling unit.
func journalOrderCallers(u *unit, loadedAppender, blobWriter map[string]bool) []Diagnostic {
	if loadedAppender[u.name] {
		// The appender's own body is the abstraction boundary; obligations
		// attach to its callers.
		return nil
	}
	var diags []Diagnostic
	for _, c := range u.calls {
		if !loadedAppender[c.name] {
			continue
		}
		written := false
		for _, w := range u.calls {
			written = written || blobWriter[w.name] && w.call.End() < c.call.Pos()
		}
		if !written {
			diags = append(diags, u.diag("journalorder", c.call,
				"%s journals a loaded-record with no preceding blob write in %s — the journal would claim pages a crash never persisted (data-before-metadata, DESIGN §10/§13)", c.name, u.name))
		}
	}
	return diags
}

// journalLockDiscipline requires every journal append to follow a
// checkpoint-exclusion acquisition in the same unit: `defer
// t.journalLock()()` or an explicit lock of something named ckpt.
func journalLockDiscipline(u *unit) []Diagnostic {
	if u.name == "journalAppend" || u.name == "journalLock" {
		// The blessed wrapper pair: callers hold the lock around them.
		return nil
	}
	var diags []Diagnostic
	for _, ap := range journalAppendCalls(u) {
		held := false
		for _, r := range u.regions {
			if r.opener == "journalLock" || r.lock != "" && strings.Contains(r.recv, "ckpt") {
				held = held || r.start < ap.Pos()
			}
		}
		if !held {
			diags = append(diags, u.diag("journalorder", ap,
				"journal append outside the checkpoint-exclusion region — take journalLock()/ckptMu before appending in %s so a snapshot cannot interleave", u.name))
		}
	}
	return diags
}
