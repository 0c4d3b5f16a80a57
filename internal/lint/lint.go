// Package lint is scanraw's project-specific static-analysis suite: the
// concurrency and resource-lifecycle invariants the pipeline depends on —
// cache pin/unpin balance, vector-pool recycle discipline, goroutine
// termination, context propagation, and lock/channel ordering — are not
// visible to `go vet` or the race detector (a race-free double-unpin is
// still a corruption; a leaked reader goroutine is still a capacity leak),
// so they are enforced mechanically here and wired into `make check`.
//
// The driver is stdlib-only (go/parser + go/ast + go/types): packages are
// parsed from source, type-checked best-effort with a stub importer (local
// identifier resolution is what the analyzers consume; cross-package types
// are not required), and every function body is summarized once into a fact
// table (facts.go) that all analyzers query.
//
// False positives are suppressed inline with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory: a bare directive is itself a diagnostic, so every suppression
// in the tree documents why the invariant holds anyway.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed source file with what the analyzers need beside its
// syntax tree.
type File struct {
	Fset *token.FileSet
	File *ast.File
	Path string
	// Pkg is the slash-separated package directory relative to the module
	// root (e.g. "internal/scanraw"); package-scoped analyzers match on it.
	Pkg string
	// Info carries best-effort type-checker results. Imports resolve to
	// stub packages, so cross-package types are invalid — analyzers use
	// Info only for local identifier/object resolution and must degrade to
	// name matching when an object is missing.
	Info *types.Info
}

// sameIdent reports whether two identifiers denote the same variable,
// preferring type-checker objects and falling back to name equality.
func (f *File) sameIdent(a, b *ast.Ident) bool {
	if oa, ob := f.Info.ObjectOf(a), f.Info.ObjectOf(b); oa != nil && ob != nil {
		return oa == ob
	}
	return a.Name == b.Name
}

// Analyzer is one named check over the function units of a run.
type Analyzer struct {
	Name string
	// Dirs restricts the analyzer to packages whose root-relative path has
	// one of these suffixes. Only an analyzer whose rule is one package's
	// protocol names it here; a rule keyed by project-specific callee names
	// scopes itself and applies everywhere.
	Dirs []string
	// Run receives every unit (function declaration or literal, with its
	// fact table — see facts.go) of every file the analyzer applies to, in
	// directory, file and source order. A rule local to one function wraps
	// its check in perUnit; one that spans functions, files or packages (the
	// lock graph, blob-write-before-journal-append) reads the whole slice.
	Run func(units []*unit) []Diagnostic
}

// perUnit adapts a check of one function at a time to Analyzer.Run.
func perUnit(check func(u *unit) []Diagnostic) func([]*unit) []Diagnostic {
	return func(units []*unit) []Diagnostic {
		var diags []Diagnostic
		for _, u := range units {
			diags = append(diags, check(u)...)
		}
		return diags
	}
}

func (a *Analyzer) applies(pkg string) bool {
	for _, d := range a.Dirs {
		if pkg == d || strings.HasSuffix(pkg, "/"+d) {
			return true
		}
	}
	return len(a.Dirs) == 0
}

// Analyzers returns the full project suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PinBalance,
		PoolPair,
		GoExit,
		CtxFlow,
		LockSend,
		JournalOrder,
		SyncAck,
		DecodeGuard,
		CRCFlow,
		LockOrder,
	}
}

// Config parameterizes a lint run.
type Config struct {
	// Root is the module root directory patterns are resolved against.
	Root string
}

// Run expands the package patterns (directory paths, recursive with a
// trailing "/..."), parses and type-checks each package, builds every
// function unit's fact table once, hands each analyzer the units of the
// packages it applies to, filters suppressed findings, reports suppressions
// that suppressed nothing, and returns the surviving diagnostics sorted by
// position. Test files are not linted: they spawn short-lived goroutines and
// local resources freely, and the invariants the suite guards are
// production-path lifecycles.
func Run(cfg Config, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, err := expandPatterns(cfg.Root, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	var units []*unit
	igByFile := map[string]*ignores{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := loadDir(fset, cfg.Root, dir)
		if err != nil {
			return nil, err
		}
		for _, lf := range files {
			ig, igDiags := collectIgnores(fset, lf.File)
			igByFile[lf.Path] = ig
			diags = append(diags, igDiags...)
			units = append(units, funcUnits(lf)...)
		}
	}
	for _, a := range analyzers {
		var sel []*unit
		for _, u := range units {
			if a.applies(u.f.Pkg) {
				sel = append(sel, u)
			}
		}
		for _, d := range a.Run(sel) {
			if !igByFile[d.Pos.Filename].suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	diags = append(diags, unusedSuppressions(igByFile, analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// unusedSuppressions reports every //lint:ignore directive that suppressed no
// finding during this run, so suppressions cannot rot in place as the code
// they once excused moves or gets fixed. Only directives naming an analyzer
// that actually ran are considered: a partial run (-only, per-fixture tests)
// must not condemn a directive whose analyzer it never exercised.
func unusedSuppressions(igByFile map[string]*ignores, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, ig := range igByFile {
		for _, e := range ig.entries {
			if e.used || !ran[e.name] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      e.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("unused //lint:ignore %s: no finding here to suppress — delete the directive or move it with the code it excuses", e.name),
			})
		}
	}
	return diags
}

// expandPatterns resolves the CLI package patterns into package directories,
// relative to root. A pattern ending in "/..." (or a bare "...") also takes
// every directory below it, skipping testdata, vendor and hidden directories;
// no pattern at all means "./...". A directory without Go files contributes
// nothing (loadDir).
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	for _, p := range patterns {
		p, recursive := strings.CutSuffix(p, "...")
		top := p
		if !filepath.IsAbs(p) {
			top = filepath.Join(root, p)
		}
		if st, err := os.Stat(top); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("lint: %q is not a package directory", p)
		}
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != top && (!recursive || name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loadDir parses and type-checks the non-test files of one package directory.
func loadDir(fset *token.FileSet, root, dir string) ([]*File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var paths []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := typeCheck(fset, dir, files)
	pkg, err := filepath.Rel(root, dir)
	if err != nil {
		pkg = dir
	}
	out := make([]*File, len(files))
	for i, af := range files {
		out[i] = &File{Fset: fset, File: af, Path: paths[i], Pkg: filepath.ToSlash(pkg), Info: info}
	}
	return out, nil
}

// typeCheck runs go/types over the package with a stub importer, collecting
// whatever identifier resolution succeeds. Errors are expected (imports are
// stubs) and ignored — the analyzers only consume local object identity.
func typeCheck(fset *token.FileSet, dir string, files []*ast.File) *types.Info {
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    stubImporter{},
		Error:       func(error) {}, // best-effort: keep going past stub-import holes
		FakeImportC: true,
	}
	// The result package is irrelevant; Info side tables are the product.
	_, _ = conf.Check(dir, fset, files, info)
	return info
}

// stubImporter satisfies every import with an empty placeholder package, so
// type-checking proceeds without compiled export data or module resolution.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	p.MarkComplete()
	return p, nil
}

// ignoreRe matches the suppression directive. The analyzer list is comma
// separated; the reason is everything after it.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z0-9_,]+)(?:\s+(.*))?$`)

// ignoreEntry is one analyzer name from one directive; used flips when the
// entry suppresses a finding, and entries that never flip are reported by the
// unused-suppression pass.
type ignoreEntry struct {
	pos  token.Position
	name string
	used bool
}

// ignores indexes a file's suppression directives by source line.
type ignores struct {
	entries []*ignoreEntry
	byLine  map[int][]*ignoreEntry
}

// suppresses reports whether a directive on the finding's line or the line
// above names its analyzer, and marks that directive used.
func (ig *ignores) suppresses(d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, e := range ig.byLine[line] {
			if e.name == d.Analyzer {
				e.used = true
				return true
			}
		}
	}
	return false
}

// collectIgnores gathers //lint:ignore directives into ig, reporting
// malformed ones (missing reason) as diagnostics so suppressions stay
// justified.
func collectIgnores(fset *token.FileSet, f *ast.File) (*ignores, []Diagnostic) {
	ig := &ignores{byLine: map[int][]*ignoreEntry{}}
	var diags []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			if strings.TrimSpace(m[2]) == "" {
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "//lint:ignore needs a reason: `//lint:ignore <analyzer> <why the invariant holds>`",
				})
				continue
			}
			for _, name := range strings.Split(m[1], ",") {
				e := &ignoreEntry{pos: pos, name: name}
				ig.entries = append(ig.entries, e)
				ig.byLine[pos.Line] = append(ig.byLine[pos.Line], e)
			}
		}
	}
	return ig, diags
}
