package exp

// Dynamic determinism regression: the static fancy-vet suite bans the
// constructs that usually break seed-determinism (wall clock, global rand,
// ordered map iteration), but no static analysis sees everything. This test
// backstops it at runtime: the same fleet-chaos scenario run twice from the
// same seed must produce byte-identical fleet event logs, correlator
// verdicts and health snapshots.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fancy/internal/fleet"
	"fancy/internal/hh"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

// chaosTranscript runs one fleet-chaos trial — gray link on a degraded
// management plane with a mid-run correlator crash, the most event-dense
// configuration we have — and serializes everything observable: the full
// event log, the verdict set with timestamps, and the health snapshot.
// With replicas > 1 the crash kills the LEADER of a consensus group and
// recovery goes through a phi-driven election and replicated-log restore.
// With verified set the correlator runs the verified-commit gate and the
// gray switch carries a protected backup, so the transcript includes gate
// decisions (commit, rejection or repair) and the verify snapshot counters.
func chaosTranscript(t *testing.T, seed int64, replicas int, hhSlots int, verified bool) string {
	t.Helper()
	dl := topo.DirectedLink{From: "kansascity", To: "denver"}
	// The fleet-chaos sweep's own trial value at its acceptance cell, minus
	// the automatic protection: only the verify cell protects the entry.
	tr := chaosTrial(seed, dl, 3*sim.Second, ChaosFleetConfig{Loss: 0.2, Crash: true, Replicas: replicas})
	tr.Protect = nil
	if hhSlots > 0 {
		tr.Config.HH = &fleet.HHFleetConfig{
			Sketch:       hh.Params{Stages: 3, Width: 32, Seed: 5},
			DynamicSlots: hhSlots,
		}
	}
	if verified {
		tr.Config.Verify = &fleet.VerifyConfig{}
		tr.Protect = []fleet.Protection{{Switch: dl.From, Entry: grayEntry, PrimaryTo: dl.To, BackupTo: "houston"}}
	}
	r, err := tr.Start()
	if err != nil {
		t.Fatal(err)
	}
	r.Finish()

	f := r.Fleet
	var b strings.Builder
	for _, ev := range f.Events {
		fmt.Fprintf(&b, "%s\n", ev)
	}
	for _, key := range f.Localized() {
		fmt.Fprintf(&b, "verdict %s at %v\n", key, f.LocalizedAt(key))
	}
	fmt.Fprintf(&b, "snapshot %+v\n", f.Snapshot())
	return b.String()
}

// TestSameSeedSameTranscript is the determinism contract: two runs from one
// seed are byte-identical; a different seed must still localize the same
// gray link (the verdict is seed-independent even though the transcript is
// not). Both the single-instance and the replicated correlator must hold
// it — elections, log replication and redirects included.
//
// Run 1 must also equal testdata/transcript-<name>.golden, recorded from this
// function at the commit before the correlator became one replica group
// (a065d1f): "byte-identical to the parent" is a file compare, not a manual
// check. There is no update flag; a transcript that is meant to move is
// replaced with the "got" text below in the change that explains why.
func TestSameSeedSameTranscript(t *testing.T) {
	const seed = 1234
	for _, tc := range []struct {
		name     string
		replicas int
		hhSlots  int
		verified bool
	}{
		{"single-instance", 0, 0, false},
		{"replica3", 3, 0, false},
		{"hh-alloc", 0, 4, false},
		{"verify", 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := chaosTranscript(t, seed, tc.replicas, tc.hhSlots, tc.verified)
			b := chaosTranscript(t, seed, tc.replicas, tc.hhSlots, tc.verified)
			if a != b {
				t.Fatalf("same seed produced different transcripts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			if !strings.Contains(a, "verdict kansascity->denver") {
				t.Fatalf("transcript has no verdict for the injected link:\n%s", a)
			}
			file := "testdata/transcript-" + tc.name + ".golden"
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if a != string(want) {
				t.Fatalf("%s: transcript moved:\n got:\n%s\nwant:\n%s", file, a, want)
			}
			c := chaosTranscript(t, seed+1, tc.replicas, tc.hhSlots, tc.verified)
			if !strings.Contains(c, "verdict kansascity->denver") {
				t.Fatalf("other-seed transcript has no verdict for the injected link:\n%s", c)
			}
		})
	}
}
