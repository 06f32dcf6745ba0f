package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestGhEscape(t *testing.T) {
	for _, tc := range []struct{ in, msg, prop string }{
		{"plain", "plain", "plain"},
		{"100%", "100%25", "100%25"},
		{"a\r\nb", "a%0D%0Ab", "a%0D%0Ab"},
		{"%0A", "%250A", "%250A"}, // % first: an escape is never re-read as one
		{"x.go:3,4", "x.go:3,4", "x.go%3A3%2C4"},
	} {
		if got := ghEscape(tc.in); got != tc.msg {
			t.Errorf("ghEscape(%q) = %q, want %q", tc.in, got, tc.msg)
		}
		if got := ghEscapeProp(tc.in); got != tc.prop {
			t.Errorf("ghEscapeProp(%q) = %q, want %q", tc.in, got, tc.prop)
		}
	}
}

func vet(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	if code, out, errOut := vet("./cmd/internal/flagcheck"); code != 0 || out != "" || errOut != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and silence", code, out, errOut)
	}
}

func TestUsageAndLoadErrorsExitTwo(t *testing.T) {
	code, out, errOut := vet("-bogus")
	if code != 2 || out != "" || !strings.Contains(errOut, "not defined: -bogus") ||
		!strings.Contains(errOut, "usage: fancy-vet") {
		t.Errorf("-bogus: exit %d, stdout %q, stderr %q; want 2 and the usage text on stderr", code, out, errOut)
	}
	code, out, errOut = vet("./no/such/package")
	if code != 2 || out != "" || !strings.HasPrefix(errOut, "fancy-vet: ") {
		t.Errorf("missing package: exit %d, stdout %q, stderr %q; want 2 and a fancy-vet: line", code, out, errOut)
	}
}

// TestFindingsExitOne runs the three renderings over a fixture package of
// internal/lint (its own module, so the command must start inside it) with
// two known true positives and one justified suppression.
func TestFindingsExitOne(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../../internal/lint/testdata/src"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(cwd) }) //nolint:errcheck // best effort: the test binary exits next

	const file = "globalrand/globalrand.go"
	want := []jsonFinding{
		{File: file, Line: 9, Column: 9, Analyzer: "globalrand"},
		{File: file, Line: 14, Column: 9, Analyzer: "globalrand"},
	}

	code, out, errOut := vet("-json", "./globalrand")
	var got []jsonFinding
	if err := json.Unmarshal([]byte(out), &got); code != 1 || errOut != "" || err != nil || len(got) != len(want) {
		t.Fatalf("-json: exit %d, stderr %q, decode error %v, %d finding(s); want exit 1 and %d", code, errOut, err, len(got), len(want))
	}
	var plain, github strings.Builder
	for i, f := range got {
		if f.Message == "" {
			t.Errorf("-json finding %d has no message", i)
		}
		want[i].Message = f.Message // the wording is internal/lint's to pin
		if f != want[i] {
			t.Errorf("-json finding %d = %+v, want %+v", i, f, want[i])
		}
		fmt.Fprintf(&plain, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		fmt.Fprintf(&github, "::error file=%s,line=%d,col=%d,title=fancy-vet %s::%s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
	}
	if code, out, _ := vet("./globalrand"); code != 1 || out != plain.String() {
		t.Errorf("plain: exit %d, stdout\n%swant exit 1 and\n%s", code, out, plain.String())
	}
	if code, out, _ := vet("-github", "./globalrand"); code != 1 || out != github.String() {
		t.Errorf("-github: exit %d, stdout\n%swant exit 1 and\n%s", code, out, github.String())
	}
}
