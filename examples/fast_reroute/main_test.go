package main

import (
	"testing"

	"fancy/internal/cmdtest"
)

// TestExampleOutput pins the program's stdout byte for byte; refresh by
// `go run ./examples/<name> > examples/<name>/testdata/output.golden`.
func TestExampleOutput(t *testing.T) {
	cmdtest.Golden(t, run, "testdata/output.golden")
}
