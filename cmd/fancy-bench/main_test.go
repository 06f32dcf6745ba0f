package main

import (
	"testing"

	"fancy/internal/cmdtest"
)

// The two goldens pin every table fancy-bench prints, byte for byte: all 24
// experiments at quick scale, and the five fleet-era experiments at paper
// scale (the 156 / 504 / 268 ms medians, 28/28 exact, 40/40 repaired,
// 60 vs 600 ms newly-hot detection).

func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	cmdtest.Golden(t, run, "testdata/quick.golden")
}

func TestFleetFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	cmdtest.Golden(t, run, "testdata/fleet-full.golden",
		"-full", "-exp", "fleet,fleet-chaos,fleet-verified,verified-reroute,hh-churn")
}

func TestRejectsBadInput(t *testing.T) {
	cmdtest.Rejects(t, run, "fancy-bench", "unknown experiments: nope (use -list)", "-exp", "fig7,nope")
	cmdtest.Rejects(t, run, "fancy-bench", "-workers must be >= 0, got -1", "-workers", "-1")
	cmdtest.Rejects(t, run, "fancy-bench", "-workers must be >= 1, got 0", "-workers", "0")
}
