package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMutantsKilled measures recall on the real tree. TestTreeClean says the
// analyzers report nothing on code that is right; this says they report
// something when the code is made wrong. Every statement an analyzer is
// answerable for — each Unpin, each pool recycle, each Sync/syncDir in the
// store, each bounds check between a raw decode and a make, each
// `defer …journalLock()()`, each captured and each checked error of a
// CRC-verifying decode — is removed in turn from a copy of its package (the
// bytes are overwritten with spaces, so every other position holds), and the
// responsible analyzer must then report a finding. A mutant that survives is
// a site the gate does not guard; it must be listed in survivors with the
// reason the code is right without it, or the test fails. `go test -v` prints
// one killed/survived line per mutant.
func TestMutantsKilled(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolving repo root: %v", err)
	}
	dirs, err := expandPatterns(root, nil)
	if err != nil {
		t.Fatalf("expanding ./...: %v", err)
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		pkg := loadMutantPkg(t, dir)
		muts := pkg.sites(filepath.ToSlash(rel))
		if len(muts) == 0 {
			continue
		}
		tmp := t.TempDir()
		pkgDir := filepath.Join(tmp, rel)
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, src := range pkg.src {
			if err := os.WriteFile(filepath.Join(pkgDir, name), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range muts {
			seen[m.site] = true
			path := filepath.Join(pkgDir, m.file)
			if err := os.WriteFile(path, m.apply(pkg.src[m.file]), 0o644); err != nil {
				t.Fatal(err)
			}
			diags, err := Run(Config{Root: tmp}, []string{"./..."}, []*Analyzer{byName[m.analyzer]})
			if err != nil {
				t.Fatalf("%s: Run: %v", m.site, err)
			}
			if err := os.WriteFile(path, pkg.src[m.file], 0o644); err != nil {
				t.Fatal(err)
			}
			var found []string
			for _, d := range diags {
				if d.Analyzer == m.analyzer {
					p, _ := filepath.Rel(tmp, d.Pos.Filename)
					found = append(found, fmt.Sprintf("%s:%d:%d: %s", filepath.ToSlash(p), d.Pos.Line, d.Pos.Column, d.Message))
				}
			}
			reason, excused := survivors[m.site]
			switch {
			case len(found) > 0 && excused:
				t.Errorf("killed   %s [%s] — but survivors lists it (%q): delete the entry", m.site, m.analyzer, reason)
			case len(found) > 0:
				t.Logf("killed   %s [%s] %s", m.site, m.analyzer, strings.Join(found, " | "))
			case excused:
				t.Logf("survived %s [%s] — %s", m.site, m.analyzer, reason)
			default:
				t.Errorf("survived %s [%s] — the analyzer does not notice this statement missing: fix the analyzer or list the site in survivors with the reason the code is right without it", m.site, m.analyzer)
			}
		}
	}
	for site := range survivors {
		if !seen[site] {
			t.Errorf("survivors lists %s, which is no longer a site in the tree: delete the entry", site)
		}
	}
}

// The reasons a mutant may survive. Each is a limit of an analyzer that looks
// at one function at a time and at positions rather than paths — stated here
// so that a survivor is a known blind spot, not an unexamined one.
const (
	// The function releases something it did not acquire under a recognised
	// name — a parameter, a field, a channel item, the result of a project
	// function such as Tokenize, a pin an earlier stage took.
	// With the statement gone there is neither an acquire to follow forward
	// nor a second release to be inconsistent with.
	handedIn = "ownership was handed in: this function holds no acquire to follow and no other release to contradict"
	// The same value is an argument of another call on the leaking path
	// (SetColumn(col, v), len(data)); any such mention reads as a transfer.
	passedOn = "the value is an argument of another call on this path, which the tracker reads as a transfer"
	// The leaking path does not exit early, it falls through; phase B only
	// examines exits.
	fallsThrough = "the path that loses the buffer falls through instead of exiting early; only exits are examined"
	// syncack asks for one sync-class call between the last write and the ack.
	anySync = "a second sync-class call stands between the same write and the ack; either satisfies the rule"
	noWrite = "the function writes nothing itself: syncing is its whole job"
	// journalorder's lock rule is about appends.
	noAppend = "no journal append in this function: the lock brackets a catalog change whose record goes out with a later append"
	// decodeguard takes any relational comparison on the variable as a bound.
	otherCompare = "the `cap(buf) < n` reuse test after it is itself a relational comparison on n, which is all decodeguard asks for"
)

// survivors names the mutants no analyzer is expected to kill, by
// file:function:callee#ordinal, with the reason each survives.
var survivors = map[string]string{
	"benchmark/layers.go:layerConvert:PutPositionalMap#2":            handedIn,
	"benchmark/layers.go:layerDBStore:Unpin#1":                       handedIn,
	"benchmark/replay.go:replayUnder:Unpin#1":                        handedIn,
	"internal/bench/fig5.go:referenceSplit:PutPositionalMap#1":       handedIn,
	"internal/chunk/chunk.go:BinaryChunk.RecycleColumns:PutVector#1": handedIn,
	"internal/engine/expr.go:releaseScratch:PutVector#1":             handedIn,
	"internal/kernel/kernel.go:Kernel.install:putVectors#1":          handedIn,
	"internal/kernel/kernel.go:putVectors:PutVector#1":               handedIn,
	"internal/scanraw/driver.go:run.discoverAll:putText#1":           handedIn,
	"internal/scanraw/driver.go:run.walk:Unpin#1":                    handedIn,
	"internal/scanraw/driver.go:pooled.hand:Unpin#1":                 handedIn,
	"internal/scanraw/driver.go:task.drop:putText#1":                 handedIn,
	"internal/scanraw/driver.go:run.serve:putText#1":                 handedIn,
	"internal/scanraw/pipeline.go:run.deliver:Unpin#1":               handedIn,
	"internal/scanraw/pipeline.go:run.insertPinned:Unpin#1":          handedIn,
	"internal/scanraw/scanner.go:rawScanner.release:putText#1":       handedIn,
	"internal/scanraw/scanraw.go:Operator.writeCached:Unpin#1":       handedIn,
	"internal/dbstore/segment.go:ChunkPages.install:PutVector#1":     passedOn,
	"internal/engine/expr.go:intSum.eval:PutVector#1":                passedOn,
	"internal/kernel/kernel.go:Kernel.Convert:putVectors#1":          passedOn,
	"internal/parse/parse.go:Parser.Parse:PutVector#1":               passedOn,
	"internal/parse/parse.go:Parser.ParseWhere:PutVector#1":          passedOn,
	"internal/scanraw/driver.go:run.fileVisit:putText#1":             passedOn,
	"internal/scanraw/driver.go:run.serve:Unpin#1":                   passedOn,
	"internal/scanraw/driver.go:run.fileVisit:putText#2":             fallsThrough,
	"internal/store/filedisk.go:syncDir:Sync#1":                      noWrite,
	"internal/store/filedisk.go:syncMeter.Sync:Sync#1":               noWrite,
	"internal/store/filedisk.go:syncMeter.syncDir:syncDir#1":         noWrite,
	"internal/store/manifest.go:Manifest.Close:Sync#1":               noWrite,
	"internal/store/manifest.go:OpenManifest:Sync#1":                 anySync,
	"internal/store/manifest.go:OpenManifest:syncDir#1":              anySync,
	"internal/dbstore/dbstore.go:Table.EnsureChunk:journalLock#1":    noAppend,
	"internal/dbstore/dbstore.go:Table.SetChunkStats:journalLock#1":  noAppend,
	"internal/cluster/wire.go:FrameReader.Next:guard(n)#1":           otherCompare,
}

// mutant is one removable statement: the bytes [from, to) of file are
// replaced by repl padded with spaces (newlines kept).
type mutant struct {
	site, analyzer, file string
	from, to             int
	repl                 string
}

func (m mutant) apply(src []byte) []byte {
	out := append([]byte(nil), src...)
	for i := m.from; i < m.to; i++ {
		switch {
		case i-m.from < len(m.repl):
			out[i] = m.repl[i-m.from]
		case out[i] != '\n':
			out[i] = ' '
		}
	}
	return out
}

// mutantPkg is one package directory's non-test files, parsed.
type mutantPkg struct {
	fset  *token.FileSet
	src   map[string][]byte
	files map[string]*ast.File
}

func loadMutantPkg(t *testing.T, dir string) *mutantPkg {
	t.Helper()
	p := &mutantPkg{fset: token.NewFileSet(), src: map[string][]byte{}, files: map[string]*ast.File{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(p.fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.src[name], p.files[name] = src, f
	}
	return p
}

// sites lists the package's mutants in file, then source order.
func (p *mutantPkg) sites(pkg string) []mutant {
	var names []string
	for name := range p.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var muts []mutant
	for _, name := range names {
		for _, decl := range p.files[name].Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				muts = append(muts, p.funcSites(pkg, name, fd)...)
			}
		}
	}
	return muts
}

func (p *mutantPkg) funcSites(pkg, file string, fd *ast.FuncDecl) []mutant {
	var muts []mutant
	fn := fd.Name.Name
	if recv := recvTypeName(fd); recv != "" {
		fn = recv + "." + fn
	}
	ordinal := map[string]int{}
	add := func(analyzer, callee, suffix string, from, to token.Pos, repl string) {
		if suffix == "" {
			ordinal[callee]++
		}
		muts = append(muts, mutant{
			site:     fmt.Sprintf("%s/%s:%s:%s#%d%s", pkg, file, fn, callee, ordinal[callee], suffix),
			analyzer: analyzer, file: file,
			from: p.fset.Position(from).Offset, to: p.fset.Position(to).Offset, repl: repl,
		})
	}
	// removeCall takes the call out: as `nil` when a return carries it,
	// otherwise with the whole statement (of a statement list) it stands in.
	removeCall := func(analyzer string, call *ast.CallExpr, stack []ast.Node) {
		for i := len(stack) - 1; i > 0; i-- {
			switch s := stack[i].(type) {
			case *ast.ReturnStmt:
				add(analyzer, calleeName(call), "", call.Pos(), call.End(), "nil")
				return
			case ast.Stmt:
				if inStmtList(stack[i-1], s) {
					add(analyzer, calleeName(call), "", s.Pos(), s.End(), "")
					return
				}
			}
		}
	}

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch v := n.(type) {
		case *ast.CallExpr:
			name := calleeName(v)
			switch {
			case pinSpec.releases[name]:
				removeCall("pinbalance", v, stack)
			case poolSpec.releases[name]:
				removeCall("poolpair", v, stack)
			case (name == "Sync" || name == "syncDir") && strings.HasSuffix(pkg, "internal/store"):
				removeCall("syncack", v, stack)
			}
		case *ast.DeferStmt:
			if inner, ok := v.Call.Fun.(*ast.CallExpr); ok && calleeName(inner) == "journalLock" {
				add("journalorder", "journalLock", "", v.Pos(), v.End(), "")
			}
		case *ast.AssignStmt:
			if len(v.Rhs) != 1 {
				break
			}
			call, ok := v.Rhs[0].(*ast.CallExpr)
			if !ok || !crcFuncs[calleeName(call)] {
				break
			}
			errID, ok := v.Lhs[len(v.Lhs)-1].(*ast.Ident)
			if !ok || errID.Name == "_" {
				break
			}
			// The captured verdict, discarded…
			add("crcflow", calleeName(call), "", errID.Pos(), errID.End(), "_")
			// …and, where the next statement is its check, unchecked.
			if check := nextIf(stack, v); check != nil && usesName(check.Cond, errID.Name) {
				add("crcflow", calleeName(call), "/check", check.Pos(), check.End(), "")
			}
		}
		return true
	})
	guardSites(add, fd)
	return muts
}

// inStmtList reports whether s is an element of parent's statement list, so
// that blanking it leaves a well-formed list behind.
func inStmtList(parent ast.Node, s ast.Stmt) bool {
	var list []ast.Stmt
	switch p := parent.(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}

// nextIf returns the if statement directly after as in its statement list,
// or nil (also when as is an if's own init: the discard mutant covers that).
func nextIf(stack []ast.Node, as *ast.AssignStmt) *ast.IfStmt {
	if len(stack) < 2 {
		return nil
	}
	blk, ok := stack[len(stack)-2].(*ast.BlockStmt)
	if !ok {
		return nil
	}
	for i, s := range blk.List {
		if s == ast.Stmt(as) && i+1 < len(blk.List) {
			check, _ := blk.List[i+1].(*ast.IfStmt)
			return check
		}
	}
	return nil
}

// guardSites finds the bounds checks decodeguard relies on: an if, standing
// in a statement list, that compares a variable assigned from a raw decode
// before it and passed to make after it.
func guardSites(add func(analyzer, callee, suffix string, from, to token.Pos, repl string), fd *ast.FuncDecl) {
	decoded := map[string]token.Pos{} // variable → first raw-decode assignment
	sized := map[string]token.Pos{}   // variable → last make it sizes
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			raw := false
			for _, r := range v.Rhs {
				ast.Inspect(r, func(k ast.Node) bool {
					if c, ok := k.(*ast.CallExpr); ok {
						if _, isSrc := taintSources[calleeName(c)]; isSrc {
							raw = true
						}
					}
					return true
				})
			}
			if id, ok := v.Lhs[0].(*ast.Ident); ok && raw {
				if _, dup := decoded[id.Name]; !dup {
					decoded[id.Name] = v.End()
				}
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 1 {
				for _, a := range v.Args[1:] {
					for name := range condIdents(a) {
						sized[name] = v.Pos()
					}
				}
			}
		}
		return true
	})
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		check, ok := n.(*ast.IfStmt)
		if !ok || len(stack) < 2 || !inStmtList(stack[len(stack)-2], check) {
			return true
		}
		var names []string
		for name := range boundComparisons(check.Cond) {
			if at, ok := decoded[name]; ok && at < check.Pos() && sized[name] > check.End() {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			add("decodeguard", "guard("+strings.Join(names, ",")+")", "", check.Pos(), check.End(), "")
		}
		return true
	})
}
