package main

import (
	"strings"
	"testing"

	"fancy/internal/cmdtest"
)

func TestGolden(t *testing.T) {
	for file, args := range map[string]string{
		"default":            "",
		"failover":           "-mgmt-loss 0.1 -mgmt-jitter 1ms -replicas 3 -kill-leader 2.1s -verify -events",
		"crash":              "-mgmt-loss 0.1 -mgmt-jitter 1ms -crash-correlator 2.1s -events",
		"partition":          "-mgmt-loss 0.1 -partition seattle -events",
		"inject-loop-verify": "-inject-loop -verify",
		"hh":                 "-hh",
	} {
		t.Run(file, func(t *testing.T) {
			cmdtest.Golden(t, run, "testdata/"+file+".golden", strings.Fields(args)...)
		})
	}
}

func TestRejectsOutOfRangeFlags(t *testing.T) {
	for args, msg := range map[string]string{
		"-hh -hh-slots -3":                  "-hh-slots must be >= 0, got -3",
		"-hh -hh-slots 0":                   "-hh-slots must be >= 1 with -hh, got 0",
		"-loss 2":                           "-loss must be a probability in [0, 1], got 2",
		"-mgmt-loss 1.5":                    "-mgmt-loss must be a probability in [0, 1], got 1.5",
		"-mgmt-dup -1":                      "-mgmt-dup must be a probability in [0, 1], got -1",
		"-loss NaN":                         "-loss must be a probability",
		"-rate 0":                           "-rate must be > 0, got 0",
		"-rate -5":                          "-rate must be > 0, got -5",
		"-rate NaN":                         "-rate must be > 0, got NaN",
		"-replicas -2":                      "-replicas must be >= 0, got -2",
		"-duration -1s":                     "-duration must be >= 0, got -1s",
		"-mgmt-delay -1s":                   "-mgmt-delay must be >= 0, got -1s",
		"-link seattle":                     "-link must look like from->to",
		"-kill-leader 2s":                   "-kill-leader needs -replicas > 1",
		"-mgmt-loss 0.1 -partition nowhere": `no switch "nowhere" to partition`,
	} {
		t.Run(args, func(t *testing.T) {
			cmdtest.Rejects(t, run, "fancy-fleet", msg, strings.Fields(args)...)
		})
	}
}
