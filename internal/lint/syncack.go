package lint

import (
	"go/ast"
	"go/token"
)

// SyncAck enforces the fsync-before-ack rule of the durable layer (DESIGN
// §10): a function in internal/store that writes bytes and then returns a
// nil error has acknowledged durability, so a sync must sit between the last
// write and that `return nil`. It also guards the temp+fsync+rename
// discipline itself: `os.WriteFile` and `os.Create` drop files into managed
// directories without the atomic-replace dance, so any use of them in the
// storage package is a finding (os.CreateTemp + rename via writeFile is the
// blessed path).
//
// The pass is positional and per-function: for each `return ..., nil` it
// finds the latest write-class call before the return and requires a
// sync-class call between the two. Functions whose last result is not an
// error are exempt — they cannot ack anything. A Rename or Truncate is an
// ordering point held to the same rule in every function: a rename publishes
// the bytes written before it and a truncate discards a log the bytes before
// it (a checkpoint) replace, so a crash after either must find those bytes
// durable. The check is deliberately path-insensitive: a write on any branch
// before an unconditional nil return still demands a sync, which is the
// conservative direction for durability.
var SyncAck = &Analyzer{
	Name: "syncack",
	Dirs: []string{"internal/store"},
	Run:  perUnit(syncAckUnit),
}

// writeCalls mutate file bytes or directory entries; each demands a sync
// before the function acks with a nil error.
var writeCalls = map[string]bool{
	"Write":       true,
	"WriteAt":     true,
	"WriteString": true,
	"Truncate":    true,
	"Rename":      true,
}

// syncCalls make preceding writes durable. writeFile and WriteBlob are the
// package's own temp+fsync+rename writers and count as synced in one step.
var syncCalls = map[string]bool{
	"Sync":      true,
	"syncDir":   true,
	"writeFile": true,
	"WriteBlob": true,
}

// bypassCalls write into directories without the temp+fsync+rename dance.
var bypassCalls = map[string]bool{
	"WriteFile": true,
	"Create":    true,
}

func syncAckUnit(u *unit) []Diagnostic {
	var diags []Diagnostic
	var writes, syncs []token.Pos
	var orderings []callEvent
	for _, c := range u.calls {
		// writeFile(...) also renames, but it syncs internally; classify it
		// (and any sync-class call) before the write classes.
		switch {
		case c.recv == "os" && bypassCalls[c.name]:
			diags = append(diags, u.diag("syncack", c.call,
				"os.%s bypasses temp+fsync+rename — write through writeFile/os.CreateTemp so a crash never leaves a torn file", c.name))
		case syncCalls[c.name]:
			syncs = append(syncs, c.call.End())
		case writeCalls[c.name] && c.recv != "":
			writes = append(writes, c.call.End())
			if c.name == "Rename" || c.name == "Truncate" {
				orderings = append(orderings, c)
			}
		}
	}
	// syncedBefore reports whether a sync-class call stands between the
	// latest write preceding at and at; true when no write precedes it.
	syncedBefore := func(at token.Pos) bool {
		var lastWrite token.Pos
		for _, w := range writes {
			if w < at && w > lastWrite {
				lastWrite = w
			}
		}
		synced := lastWrite == token.NoPos
		for _, s := range syncs {
			synced = synced || (s > lastWrite && s < at)
		}
		return synced
	}
	for _, c := range orderings {
		if !syncedBefore(c.call.Pos()) {
			diags = append(diags, u.diag("syncack", c.call,
				"%s after a write with no Sync/syncDir between — a crash can find the %s done and the write lost (DESIGN §10)", c.name, c.name))
		}
	}
	// Only a function whose final result is an error can ack anything.
	results := u.typ.Results
	if len(writes) == 0 || results.NumFields() == 0 {
		return diags
	}
	if id, ok := results.List[len(results.List)-1].Type.(*ast.Ident); !ok || id.Name != "error" {
		return diags
	}
	for _, ret := range u.returns {
		if len(ret.Results) == 0 {
			continue
		}
		if last, ok := ret.Results[len(ret.Results)-1].(*ast.Ident); !ok || last.Name != "nil" {
			continue
		}
		if !syncedBefore(ret.Pos()) {
			diags = append(diags, u.diag("syncack", ret,
				"nil error returned after a write with no Sync/syncDir between — the ack races the page cache (fsync-before-ack, DESIGN §10)"))
		}
	}
	return diags
}
