package main

import (
	"fmt"
	"runtime"
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

// TestGoldensAtAnyGOMAXPROCS holds the trial runner to its contract: every
// experiment's cells run on GOMAXPROCS goroutines and land by index, so the
// goldens hold whether the cells run one at a time or three at once. A
// runner that appended results in completion order fails here.
func TestGoldensAtAnyGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fleetFull := []string{"-full", "-exp", "fleet,fleet-chaos,fleet-verified,verified-reroute,hh-churn"}
	for _, c := range []struct {
		procs  int
		golden string
		args   []string
	}{
		{1, "quick", nil},
		{3, "quick", nil},
		{1, "fleet-full", fleetFull},
	} {
		t.Run(fmt.Sprintf("%s/procs=%d", c.golden, c.procs), func(t *testing.T) {
			runtime.GOMAXPROCS(c.procs)
			cmdtest.Golden(t, run, "testdata/"+c.golden+".golden", c.args...)
		})
	}
}

func TestRejectsBadInput(t *testing.T) {
	cmdtest.Rejects(t, run, "fancy-bench", "unknown experiments: nope (use -list)", "-exp", "fig7,nope")
}
