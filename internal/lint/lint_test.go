package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture contract: every line that must produce a diagnostic ends in a
// `// want` comment. A line holding a bare `//lint:ignore <analyzer>`
// directive (no reason) is an implicit want — the driver reports the
// missing reason at that line, and the comment cannot also carry a marker.
var bareDirectiveRe = regexp.MustCompile(`^//lint:ignore\s+[A-Za-z0-9_,]+$`)

type wantKey struct {
	file string // base name of the fixture file
	line int
}

func TestAnalyzersOnFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			// Both directions of the contract, per analyzer: a finding fixture
			// proves it fires, a reasoned directive proves its escape hatch.
			root := filepath.Join("testdata", "src", a.Name)
			wants, suppressed := collectWants(t, root, a.Name)
			if len(wants) == 0 {
				t.Fatalf("fixture dir %s has no // want markers — every analyzer needs a bad fixture", root)
			}
			if !suppressed {
				t.Fatalf("fixture dir %s has no reasoned //lint:ignore %s — every analyzer needs a suppressed-finding fixture", root, a.Name)
			}
			diags, err := Run(Config{Root: root}, nil, []*Analyzer{a})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := map[wantKey][]string{}
			for _, d := range diags {
				k := wantKey{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line}
				got[k] = append(got[k], d.String())
			}
			for k, n := range wants {
				if len(got[k]) != n {
					t.Errorf("%s:%d: want %d diagnostic(s), got %d", k.file, k.line, n, len(got[k]))
				}
			}
			for k, msgs := range got {
				if _, ok := wants[k]; !ok {
					t.Errorf("%s:%d: unexpected diagnostic(s): %s", k.file, k.line, strings.Join(msgs, "; "))
				}
			}
		})
	}
}

// collectWants returns the fixture lines that must be diagnosed and whether
// the directory holds a reasoned suppression naming the analyzer.
func collectWants(t *testing.T, root, analyzer string) (wants map[wantKey]int, suppressed bool) {
	t.Helper()
	wants = map[wantKey]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			k := wantKey{file: filepath.Base(path), line: i + 1}
			if strings.Contains(line, "// want") {
				wants[k]++
			}
			if bareDirectiveRe.MatchString(strings.TrimSpace(line)) {
				wants[k]++
			}
			if m := ignoreRe.FindStringSubmatch(strings.TrimSpace(line)); m != nil && m[1] == analyzer && strings.TrimSpace(m[2]) != "" {
				suppressed = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting wants: %v", err)
	}
	return wants, suppressed
}

// TestTreeClean pins the property `make lint` only observes through its exit
// code: every analyzer — alone and all together — runs over the full real
// tree with zero findings. A regression in the tree or an analyzer that
// starts over-reporting both fail here, named.
func TestTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolving repo root: %v", err)
	}
	run := func(t *testing.T, as []*Analyzer) {
		t.Helper()
		diags, err := Run(Config{Root: root}, []string{"./..."}, as)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, d := range diags {
			t.Errorf("tree not clean: %s", d)
		}
	}
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) { run(t, []*Analyzer{a}) })
	}
	t.Run("all", func(t *testing.T) { run(t, Analyzers()) })
}

// TestUnusedSuppressionReported pins the unused-suppression pass: a
// directive with a reason that suppresses nothing is reported, but only when
// the analyzer it names actually ran — a partial run must not condemn
// directives it never exercised.
func TestUnusedSuppressionReported(t *testing.T) {
	root := filepath.Join("testdata", "src", "decodeguard")
	diags, err := Run(Config{Root: root}, []string{"./..."}, []*Analyzer{DecodeGuard})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var unused int
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "unused //lint:ignore") {
			unused++
		}
	}
	if unused != 1 {
		t.Errorf("want exactly 1 unused-suppression finding with decodeguard running, got %d", unused)
	}

	// The same tree under an analyzer that is not named by the directive:
	// the unused decodeguard directive must not be reported.
	diags, err = Run(Config{Root: root}, []string{"./..."}, []*Analyzer{LockSend})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "unused //lint:ignore") {
			t.Errorf("unused-suppression reported by a run that never exercised its analyzer: %s", d)
		}
	}
}

// TestSuppressionNeedsReason pins the driver behavior the bareDirective
// fixture depends on: a reasonless directive is itself a finding and does
// not suppress anything.
func TestSuppressionNeedsReason(t *testing.T) {
	diags, err := Run(Config{Root: filepath.Join("testdata", "src", "poolpair")}, []string{"./..."}, []*Analyzer{PoolPair})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var lintDiags, poolDiags int
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			lintDiags++
		case "poolpair":
			poolDiags++
		}
	}
	if lintDiags != 1 {
		t.Errorf("want exactly 1 missing-reason finding, got %d", lintDiags)
	}
	if poolDiags < 3 {
		t.Errorf("want >=3 poolpair findings (loop drop, inconsistent release, unsuppressed bare-directive drop), got %d", poolDiags)
	}
}
