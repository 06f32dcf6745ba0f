// Package cmdtest drives the cmd/ binaries and the examples/ programs through
// their run(args, stdout, stderr) entry points. Golden is the repo's exact regression gate: stdout
// either equals a committed file byte for byte or the test fails naming the
// first line that differs. There is no tolerance and no update mode; a golden
// is refreshed by redirecting the command into it (`go run ./cmd/<name>
// [args] > cmd/<name>/testdata/<file>`, `go run ./examples/<name> >
// examples/<name>/testdata/output.golden`) in the change that explains why
// the output moved.
package cmdtest

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// Run is the shape every cmd/ binary and example gives its main.
type Run func(args []string, stdout, stderr io.Writer) int

// Golden runs the command, requires exit status 0 and compares its stdout
// with file.
func Golden(t *testing.T, run Run, file string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	g, w := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of output>"
	}
	t.Fatalf("%s:%d: stdout differs from the golden\n got: %s\nwant: %s", file, i+1, line(g), line(w))
}

// Rejects runs the command with out-of-range input and requires the usage
// contract: exit status 2, nothing on stdout, and exactly one line on stderr
// that starts with the command's name and contains msg — no stack trace.
func Rejects(t *testing.T, run Run, name, msg string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	e := stderr.String()
	if code != 2 || stdout.Len() != 0 || strings.Count(e, "\n") != 1 ||
		!strings.HasPrefix(e, name+": ") || !strings.Contains(e, msg) {
		t.Fatalf("%v: exit %d, stdout %d bytes, stderr %q; want exit 2 and one line %q containing %q",
			args, code, stdout.Len(), e, name+": …", msg)
	}
}
