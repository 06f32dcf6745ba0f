// Analyzer framework: findings, suppression directives and the run loop.
//
// fancy-vet enforces the repo's load-bearing invariants — every layer of
// the simulator must be seed-deterministic, and pooled or borrowed objects
// must not outlive their owner's claim — as machine-checked analyzers. A
// finding can only be silenced with an inline
//
//	//lint:allow <analyzer> <reason>
//
// directive trailing the offending line (or on a comment line directly
// above it — each scope is exclusive, so one directive never covers two
// lines), and the driver verifies the reason is non-empty: a bare allow is
// itself reported as a finding.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer is one repo-specific check.
type Analyzer struct {
	Name string
	Doc  string // one-line invariant statement, shown by fancy-vet -help
	Run  func(p *Package) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerWalltime,
		AnalyzerGlobalRand,
		AnalyzerMapOrder,
		AnalyzerFloatEq,
		AnalyzerPoolSafe,
	}
}

// directiveAnalyzer is the pseudo-analyzer name under which malformed
// //lint:allow directives are reported. It is not itself suppressible.
const directiveAnalyzer = "directive"

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
}

// fileDirectives extracts the //lint:allow directives of one file.
func fileDirectives(fset *token.FileSet, f *ast.File) []directive {
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // /* */ comments cannot carry directives
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:allow")
			if !ok {
				continue
			}
			rest = strings.TrimSpace(rest)
			name, reason, _ := strings.Cut(rest, " ")
			ds = append(ds, directive{
				pos:      fset.Position(c.Pos()),
				analyzer: name,
				reason:   strings.TrimSpace(reason),
			})
		}
	}
	return ds
}

// codeLines returns the set of line numbers of f that carry any non-comment
// source token. Directive scoping depends on it: a directive sharing a line
// with code trails that code; a directive on a comment-only line precedes
// the code below it.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// runPackage runs the analyzers over one package and returns its
// unsuppressed findings plus directive diagnostics, unsorted.
//
// Suppression scope is exact: a directive trailing code suppresses findings
// of its named analyzer on that line only; a directive on a comment-only
// line suppresses them on the next line only. One directive can therefore
// never blanket two different findings — a line carrying two findings needs
// each analyzer named (trailing for one, a comment line above for the
// other).
func runPackage(p *Package, analyzers []*Analyzer, known map[string]bool) []Finding {
	var ds []directive
	code := make(map[string]map[int]bool)
	for _, f := range p.Files {
		ds = append(ds, fileDirectives(p.Fset, f)...)
		pos := p.Fset.Position(f.Pos())
		code[pos.Filename] = codeLines(p.Fset, f)
	}
	suppressed := func(f Finding) bool {
		for _, d := range ds {
			if d.analyzer != f.Analyzer || d.reason == "" ||
				d.pos.Filename != f.Pos.Filename {
				continue
			}
			if code[d.pos.Filename][d.pos.Line] {
				if d.pos.Line == f.Pos.Line {
					return true // trails the offending code
				}
			} else if d.pos.Line == f.Pos.Line-1 {
				return true // comment line directly above it
			}
		}
		return false
	}
	var out []Finding
	for _, d := range ds {
		switch {
		case d.analyzer == "":
			out = append(out, Finding{Pos: d.pos, Analyzer: directiveAnalyzer,
				Message: "//lint:allow needs an analyzer name and a reason"})
		case !known[d.analyzer]:
			out = append(out, Finding{Pos: d.pos, Analyzer: directiveAnalyzer,
				Message: "//lint:allow " + d.analyzer + ": unknown analyzer"})
		case d.reason == "":
			out = append(out, Finding{Pos: d.pos, Analyzer: directiveAnalyzer,
				Message: "//lint:allow " + d.analyzer + " has an empty reason; justify the suppression"})
		}
	}
	for _, a := range analyzers {
		for _, f := range a.Run(p) {
			if !suppressed(f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages and returns the unsuppressed
// findings plus one finding per malformed directive, sorted by position.
//
// Packages are analyzed concurrently (bounded by GOMAXPROCS): analyzers
// only read the type-checked package data, and the shared token.FileSet is
// internally synchronized. Findings are accumulated per package and merged
// under a total order, so the output is independent of scheduling.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	results := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		go func(i int, p *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = runPackage(p, analyzers, known)
		}(i, p)
	}
	wg.Wait()
	var out []Finding
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// pathHasSegment reports whether the module-relative package path (or, for
// the module root where rel is empty, the package name) contains one of the
// given path segments.
func pathHasSegment(p *Package, segments map[string]bool) bool {
	if p.Rel == "" {
		return segments[p.Name]
	}
	for _, seg := range strings.Split(p.Rel, "/") {
		if segments[seg] {
			return true
		}
	}
	return false
}

// importedPackage resolves a selector base like the `time` in time.Now to
// the import path of the package it names, or "" if it is not a package
// qualifier.
func importedPackage(p *Package, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
