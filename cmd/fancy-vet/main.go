// Command fancy-vet runs the repo-specific static-analysis suite that
// enforces simulator determinism and ownership invariants:
//
//	walltime        no wall-clock access in simulation-facing packages
//	globalrand      no global math/rand anywhere
//	maporder        no order-sensitive map or sync.Map.Range iteration without sorted keys
//	floateq         no floating-point == / != in stats, exp and fancy
//	poolsafe        no use of a pooled object after release, no double release, no release after escape, no retained borrowed packet
//
// Usage:
//
//	fancy-vet [-json] [-github] [packages]
//
// Packages are module-relative directories, optionally ending in /...;
// the default is ./... (the whole module). Findings print as
// file:line:col: analyzer: message; -json emits them as a JSON array;
// -github emits GitHub Actions ::error workflow commands so findings show
// up as inline annotations on the pull request.
// Exit status is 1 if there are findings, 2 on load or usage errors, 0
// otherwise.
//
// A finding is suppressed only by an inline directive with a reason:
//
//	//lint:allow <analyzer> <reason>
//
// trailing the offending line, or on a comment line directly above it.
// Directives with an empty reason or an unknown analyzer name are
// themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fancy/cmd/internal/flagcheck"
	"fancy/internal/lint"
)

type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// ghEscape escapes a workflow-command message: GitHub Actions parses %, CR
// and LF as command delimiters, so they are URL-style encoded (% first, or
// the escapes themselves would be re-escaped).
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghEscapeProp escapes a workflow-command property value, which additionally
// treats commas and colons as delimiters.
func ghEscapeProp(s string) string {
	s = ghEscape(s)
	s = strings.ReplaceAll(s, ",", "%2C")
	s = strings.ReplaceAll(s, ":", "%3A")
	return s
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: findings on stdout, load and usage errors on
// stderr; the exit status is the package comment's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fancy-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	githubOut := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fancy-vet [-json] [-github] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if code, done := flagcheck.Parse(fs, args); done {
		return code
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fancy-vet:", err)
		return 2
	}

	mod, err := lint.FindModule(".")
	if err != nil {
		return fail(err)
	}
	pkgs, err := lint.Load(mod, fs.Args()...)
	if err != nil {
		return fail(err)
	}
	findings := lint.Run(pkgs, lint.Analyzers())

	cwd, _ := os.Getwd()
	display := func(file string) string {
		if cwd == "" {
			return file
		}
		if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
			return rel
		}
		return file
	}
	switch {
	case *jsonOut:
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     display(f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	case *githubOut:
		// Workflow commands must use forward slashes so the annotation
		// anchors to the file in the PR diff view.
		for _, f := range findings {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=%s::%s\n",
				ghEscapeProp(filepath.ToSlash(display(f.Pos.Filename))), f.Pos.Line, f.Pos.Column,
				ghEscapeProp("fancy-vet "+f.Analyzer), ghEscape(f.Message))
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				display(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
