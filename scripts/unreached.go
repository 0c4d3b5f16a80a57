//go:build ignore

// unreached lists the functions and methods of the non-test internal/
// sources that no product binary links: every declaration the default build
// compiles whose symbol is missing from the `go tool nm` output given on
// stdin, minus the reasoned entries of the allowlist. An allowlist entry
// that names nothing unreached is printed too, so the list cannot rot.
// scripts/unreached.sh builds the binaries (inlining off, so a linked
// function keeps its own symbol) and runs it:
//
//	go tool nm BINARY... | go run scripts/unreached.go -allow scripts/unreached.allow
//
// It runs from the module root. Names are printed as internal/PKG.Func or
// internal/PKG.Type.Method, one per line with their position; the allowlist
// uses the same names, each followed by its reason ('#' starts a comment
// line).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allowPath := flag.String("allow", "", "allowlist: one name and its reason per line")
	flag.Parse()

	linked, err := readSymbols(os.Stdin)
	if err != nil {
		fatal(err)
	}
	allow, err := readAllow(*allowPath)
	if err != nil {
		fatal(err)
	}
	module, err := modulePath("go.mod")
	if err != nil {
		fatal(err)
	}
	decls, err := declarations(module)
	if err != nil {
		fatal(err)
	}
	used := map[string]bool{}
	for _, d := range decls {
		if d.linked(linked) {
			continue
		}
		if _, ok := allow[d.name]; ok {
			used[d.name] = true
			continue
		}
		fmt.Printf("%s\t%s\n", d.name, d.pos)
	}
	var stale []string
	for name := range allow {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Printf("%s\tallowed but linked or gone (%s)\n", name, *allowPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unreached:", err)
	os.Exit(2)
}

// readSymbols collects the text symbols of nm output, generic type
// arguments stripped. A symbol is the rest of its line after the address and
// the type letter: shape names contain spaces and brackets, so neither the
// last field nor a bracket-free pattern finds it.
func readSymbols(f *os.File) (map[string]bool, error) {
	syms := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(parts) == 3 && (parts[1] == "T" || parts[1] == "t") {
			syms[stripTypeArgs(parts[2])] = true
		}
	}
	return syms, sc.Err()
}

// stripTypeArgs drops every bracketed span, nested ones included:
// pkg.(*Set[go.shape.[]uint8]).Add becomes pkg.(*Set).Add.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func readAllow(path string) (map[string]string, error) {
	allow := map[string]string{}
	if path == "" {
		return allow, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// decl is one function or method declaration.
type decl struct {
	name string   // internal/PKG.Func or internal/PKG.Type.Method
	syms []string // the linker symbols any of which means it is linked
	pos  string
}

func (d decl) linked(syms map[string]bool) bool {
	for _, s := range d.syms {
		if syms[s] {
			return true
		}
	}
	return false
}

// declarations parses every internal/ source file the default build
// compiles, testdata and _test.go files excepted.
func declarations(module string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		dir, file := filepath.Split(path)
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, file); err != nil || !ok {
			return err
		}
		rel := filepath.ToSlash(filepath.Clean(dir))
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			p := fset.Position(fn.Pos())
			out = append(out, declOf(fn, rel, module+"/"+rel, fmt.Sprintf("%s:%d", filepath.ToSlash(filepath.Join(rel, file)), p.Line)))
		}
		return nil
	})
	return out, err
}

func declOf(fn *ast.FuncDecl, rel, pkg, pos string) decl {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return decl{name: rel + "." + fn.Name.Name, syms: []string{pkg + "." + fn.Name.Name}, pos: pos}
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	d := decl{name: rel + "." + recv + "." + fn.Name.Name, pos: pos}
	d.syms = []string{pkg + ".(*" + recv + ")." + fn.Name.Name}
	if !ptr {
		d.syms = append(d.syms, pkg+"."+recv+"."+fn.Name.Name)
	}
	return d
}
