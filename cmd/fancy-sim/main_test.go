package main

import (
	"strings"
	"testing"

	"fancy/internal/cmdtest"
)

func TestGolden(t *testing.T) {
	cmdtest.Golden(t, run, "testdata/default.golden")
}

// TestWatchGolden pins -watch, the once-a-second reads of the monitored
// port's flag count and completed sessions interleaved with the detector's
// events.
func TestWatchGolden(t *testing.T) {
	cmdtest.Golden(t, run, "testdata/watch.golden", "-watch")
}

func TestRejectsOutOfRangeFlags(t *testing.T) {
	for args, msg := range map[string]string{
		"-dedicated -1":    "-dedicated must be >= 0, got -1",
		"-entries -1":      "-entries must be >= 0, got -1",
		"-dedicated 9":     "-dedicated cannot exceed -entries",
		"-fail 9":          `bad failing entry "9"`,
		"-fail 0,x":        `bad failing entry "x"`,
		"-loss 2":          "-loss must be a probability in [0, 1], got 2",
		"-rate 0":          "-rate must be > 0, got 0",
		"-rate -5":         "-rate must be > 0, got -5",
		"-rate NaN":        "-rate must be > 0, got NaN",
		"-chaos-corrupt 7": "-chaos-corrupt must be a probability in [0, 1], got 7",
		"-chaos-dup -0.5":  "-chaos-dup must be a probability in [0, 1], got -0.5",
		"-zoom -1s":        "-zoom must be >= 0, got -1s",
		"-delay -1s":       "-delay must be >= 0, got -1s",
		"-delay 0":         "-delay must be > 0, got 0s",

		"-chaos-flap-at 1s -chaos-flap-for 0": "-chaos-flap-for must be > 0 with -chaos-flap-at, got 0s",
	} {
		t.Run(args, func(t *testing.T) {
			cmdtest.Rejects(t, run, "fancy-sim", msg, strings.Fields(args)...)
		})
	}
}
