package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fancy/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata/findings.golden")

// loadFixture type-checks the fixture module under testdata/src and runs
// the full analyzer suite over it.
func loadFixture(t *testing.T) []lint.Finding {
	t.Helper()
	mod, err := lint.FindModule("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "fixture" {
		t.Fatalf("fixture module path = %q, want fixture", mod.Path)
	}
	pkgs, err := lint.Load(mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return lint.Run(pkgs, lint.Analyzers())
}

// format renders findings the way the driver prints them, with paths
// relative to the fixture root so the golden file is location-independent.
func format(t *testing.T, findings []lint.Finding) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
			filepath.ToSlash(rel), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	return b.String()
}

// TestFixtureGolden asserts the exact finding set (file, line, analyzer,
// message) over the fixture module: every deliberate true positive is
// reported, every true negative and every justified suppression is not.
func TestFixtureGolden(t *testing.T) {
	got := format(t, loadFixture(t))
	golden := filepath.Join("testdata", "findings.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch (run go test ./internal/lint -update to regenerate):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAnalyzerCoverage asserts each analyzer contributes at least one
// finding over the fixtures, so a broken analyzer cannot silently pass the
// golden test by reporting nothing everywhere.
func TestAnalyzerCoverage(t *testing.T) {
	findings := loadFixture(t)
	seen := make(map[string]int)
	for _, f := range findings {
		seen[f.Analyzer]++
	}
	for _, a := range lint.Analyzers() {
		if seen[a.Name] == 0 {
			t.Errorf("analyzer %s reported no findings over the fixtures", a.Name)
		}
	}
	if seen["directive"] == 0 {
		t.Error("malformed directives reported no findings over the fixtures")
	}
}

// TestEmptyReasonDirective asserts that a //lint:allow with an empty reason
// is itself reported and does not suppress the underlying finding.
func TestEmptyReasonDirective(t *testing.T) {
	findings := loadFixture(t)
	var directive, suppressedAnyway bool
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, "sim/clock.go") {
			continue
		}
		if f.Analyzer == "directive" && strings.Contains(f.Message, "empty reason") {
			directive = true
		}
		if f.Analyzer == "walltime" && strings.Contains(f.Message, "time.Now") {
			suppressedAnyway = true
		}
	}
	if !directive {
		t.Error("empty-reason //lint:allow was not reported as a finding")
	}
	if !suppressedAnyway {
		t.Error("finding on the empty-reason line was suppressed; an allow without a reason must not suppress")
	}
}

// TestJustifiedSuppression asserts that a well-formed //lint:allow with a
// reason removes the finding: no finding of analyzer X may land on a line
// carrying a reasoned "//lint:allow X" directive in the fixtures.
func TestJustifiedSuppression(t *testing.T) {
	allowRE := regexp.MustCompile(`//lint:allow (\w+) \S`)
	suppressed := make(map[string]bool) // "file:line:analyzer"
	err := filepath.WalkDir("testdata/src", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := allowRE.FindStringSubmatch(line); m != nil {
				suppressed[fmt.Sprintf("%s:%d:%s", abs, i+1, m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suppressed) == 0 {
		t.Fatal("no reasoned //lint:allow directives found in fixtures")
	}
	for _, f := range loadFixture(t) {
		key := fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Analyzer)
		if suppressed[key] {
			t.Errorf("suppressed finding leaked: %s: %s", key, f.Message)
		}
	}
}

// TestSuppressionScope pins the one-line directive scope on the suppress
// fixture: a trailing directive covers exactly its own line (the identical
// finding one line below must still be reported — the old two-line window
// leaked downward), a comment-line directive covers exactly the line below,
// and a directive naming a different analyzer suppresses nothing.
func TestSuppressionScope(t *testing.T) {
	var got []string
	for _, f := range loadFixture(t) {
		if strings.HasSuffix(f.Pos.Filename, filepath.Join("suppress", "suppress.go")) {
			got = append(got, fmt.Sprintf("%d:%s", f.Pos.Line, f.Analyzer))
		}
	}
	want := []string{"13:floateq", "22:floateq", "36:floateq"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("suppress fixture findings = %v, want %v", got, want)
	}
}

// TestRunDeterministic asserts the parallel per-package fan-out in lint.Run
// reports the identical finding sequence on repeated runs: output order is a
// total order over (file, line, column, analyzer, message), never goroutine
// scheduling.
func TestRunDeterministic(t *testing.T) {
	first := format(t, loadFixture(t))
	for i := 0; i < 3; i++ {
		if again := format(t, loadFixture(t)); again != first {
			t.Fatalf("run %d produced a different finding sequence", i+2)
		}
	}
}

// loadRepo type-checks every non-test package of the real module once; the
// repo-wide tests share the result.
var loadRepo = func() func(*testing.T) []*lint.Package {
	var (
		once sync.Once
		pkgs []*lint.Package
		err  error
	)
	return func(t *testing.T) []*lint.Package {
		t.Helper()
		once.Do(func() {
			var mod *lint.Module
			if mod, err = lint.FindModule("."); err == nil {
				pkgs, err = lint.Load(mod)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
}()

// TestRepoClean runs the suite over the real module: the tree must stay
// vet-clean, which is the tentpole's acceptance criterion and keeps the
// gate local to go test (CI runs the driver binary as well).
func TestRepoClean(t *testing.T) {
	findings := lint.Run(loadRepo(t), lint.Analyzers())
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
}
