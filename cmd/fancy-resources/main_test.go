package main

import (
	"strings"
	"testing"

	"fancy/internal/cmdtest"
)

func TestGolden(t *testing.T) {
	cmdtest.Golden(t, run, "testdata/default.golden")
}

func TestRejectsOutOfRangeFlags(t *testing.T) {
	for args, msg := range map[string]string{
		"-p4 -dedicated -1":        "-dedicated must be >= 0, got -1",
		"-budget 2000 -entries -1": "-entries must be >= 0, got -1",
		"-ports -1":                "-ports must be >= 0, got -1",
	} {
		t.Run(args, func(t *testing.T) {
			cmdtest.Rejects(t, run, "fancy-resources", msg, strings.Fields(args)...)
		})
	}
}
