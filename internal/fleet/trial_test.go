package fleet

import (
	"strings"
	"testing"

	"fancy/internal/sim"
)

// TestTrialRejectsWhatTheTopologyLacks: a link, switch or host the topology
// does not have, a link with a negative delay, or a flow rate that is not
// > 0, is an error from Start —
// not a nil dereference, a flood or a silent no-op once the run is under way.
func TestTrialRejectsWhatTheTopologyLacks(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*Trial)
		want   string
	}{
		"gray link":      {func(tr *Trial) { tr.Faults[0].Link.To = "Z" }, "no link B->Z to fail"},
		"partition":      {func(tr *Trial) { tr.Faults = append(tr.Faults, Fault{Kind: FaultPartition, Switch: "Z"}) }, `no switch "Z" to partition`},
		"heal":           {func(tr *Trial) { tr.Faults = append(tr.Faults, Fault{Kind: FaultHeal, Switch: "Z"}) }, `no switch "Z"`},
		"fault kind":     {func(tr *Trial) { tr.Faults = append(tr.Faults, Fault{}) }, "unknown fault kind 0"},
		"flow host":      {func(tr *Trial) { tr.Flows[0].From = "H9" }, `no host "H9"`},
		"flow rate":      {func(tr *Trial) { tr.Flows[0].RateBps = 0 }, "rate must be > 0"},
		"protect switch": {func(tr *Trial) { tr.Protect = []Protection{{Switch: "Z", Entry: entry, PrimaryTo: "C"}} }, "no link Z->C to protect"},
		"protect backup": {func(tr *Trial) { tr.Protect = []Protection{{Switch: "B", Entry: entry, PrimaryTo: "C", BackupTo: "Z"}} }, "no link B->Z"},
		"route owner":    {func(tr *Trial) { tr.Spec.Hosts[1].Attach = "Z" }, `unknown switch "Z"`},
		"link delay":     {func(tr *Trial) { tr.Spec.Links[0].Delay = -sim.Millisecond }, "negative delay -1ms"},
	} {
		t.Run(name, func(t *testing.T) {
			tr := lineTrial(1, fleetCfg(entry), sim.Second, 2*sim.Second)
			tc.mutate(&tr)
			if _, err := tr.Start(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start() error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestTrialResolvesProtections: an empty BackupTo becomes the loop-free
// detour where one exists and protects nothing where none does; an explicit
// one is installed as given. Run.Protected reports what happened.
func TestTrialResolvesProtections(t *testing.T) {
	r := start(t, grayTrial(1, seattleSunnyvale, fleetCfg(entry), sim.Second, 0))
	if len(r.Protected) != 1 || r.Protected[0].BackupTo != "denver" {
		t.Fatalf("Protected %+v, want seattle's detour via denver", r.Protected)
	}
	if got, want := backupOf(r, "seattle"), r.Net.PortOf["seattle"]["denver"]; got != want {
		t.Fatalf("installed backup port %d, want denver (%d)", got, want)
	}

	// On the line B's only other neighbour routes to C through B.
	tr := lineTrial(1, fleetCfg(entry), sim.Second, 0)
	tr.Protect = []Protection{{Switch: "B", Entry: entry, PrimaryTo: "C"}}
	if r := start(t, tr); len(r.Protected) != 0 {
		t.Fatalf("Protected %+v on a line with no loop-free detour, want none", r.Protected)
	}
	tr.Protect[0].BackupTo = "A"
	if r := start(t, tr); len(r.Protected) != 1 || r.Protected[0] != tr.Protect[0] {
		t.Fatalf("Protected %+v, want the explicit backup %+v as given", r.Protected, tr.Protect[0])
	}
}

// TestTrialSeedsGrayLinksInOrder: the i-th gray link of the schedule draws
// its drops from Seed+1+i whatever else is interleaved with it, so a partial
// loss rate replays bit for bit and two gray links never share a stream.
func TestTrialSeedsGrayLinksInOrder(t *testing.T) {
	drops := func(faults ...Fault) (ab, bc uint64) {
		tr := lineTrial(7, fleetCfg(entry), 0, 2*sim.Second)
		tr.Faults = faults
		r := start(t, tr)
		r.Finish()
		return r.Net.Direction("A", "B").Stats().FailureDrops, r.Net.Direction("B", "C").Stats().FailureDrops
	}
	half := func(from, to string) Fault {
		f := grayAt(sim.Second, from, to, entry)
		f.Loss = 0.5
		return f
	}
	kill := Fault{At: sim.Second, Kind: FaultKillLeader}
	ab1, bc1 := drops(half("A", "B"), half("B", "C"))
	ab2, bc2 := drops(half("A", "B"), kill, half("B", "C"))
	if ab1 == 0 || bc1 == 0 || ab1 != ab2 || bc1 != bc2 {
		t.Fatalf("drops A->B %d/%d, B->C %d/%d: want non-zero and unmoved by an interleaved fault", ab1, ab2, bc1, bc2)
	}
	if only, _ := drops(half("A", "B")); only != ab1 {
		t.Fatalf("first gray link dropped %d alone and %d with a second one: its stream is not Seed+1", only, ab1)
	}
}
