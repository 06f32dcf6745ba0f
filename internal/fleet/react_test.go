package fleet

import (
	"slices"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// TestReactsPerEntry: one link protects two entries and suffers uniform
// loss, so a single uniform report names both. Unverified and verified,
// over a management network, the correlator resolves that report to its
// entries and commands each one: both are diverted, announced in ascending
// entry order, and the upstream agent serves one command per entry.
func TestReactsPerEntry(t *testing.T) {
	protected := []netsim.EntryID{entry, entry + 1}
	for _, verified := range []bool{false, true} {
		cfg := mgmtCfg(mgmt.Config{})
		// A narrow tree: 16 entries cover its root, so uniform loss
		// mismatches most root counters and raises one uniform report.
		cfg.Fancy.Tree = tree.Params{Width: 4, Depth: 2, Split: 2, Pipelined: true}
		if verified {
			cfg.Verify = &VerifyConfig{}
		}
		tr := Trial{
			Seed: 5, Config: cfg, Duration: 3 * sim.Second,
			Spec:   abileneSpec("seattle", "sunnyvale"),
			Routes: make(map[netsim.EntryID]string),
		}
		for e := entry; e < entry+16; e++ {
			tr.Routes[e] = "h-sunnyvale"
			tr.Flows = append(tr.Flows, Flow{From: "h-seattle", Entry: e, RateBps: 1e6})
		}
		for _, e := range protected {
			tr.Protect = append(tr.Protect, Protection{Switch: "seattle", Entry: e, PrimaryTo: "sunnyvale"})
		}
		r := start(t, tr)
		f := r.Fleet
		r.Net.Direction("seattle", "sunnyvale").SetFailure(netsim.FailUniform(7, 2*sim.Second, 0.1))
		// Every call the agent serves is a restart-counter read or a
		// command; count the reads to tell the commands apart.
		client := f.agents["seattle"].client
		serve, reads := client.OnCall, uint64(0)
		client.OnCall = func(req any) (any, error) {
			if _, ok := req.(restartsReq); ok {
				reads++
			}
			return serve(req)
		}
		r.Finish()

		var alarms []string
		var rerouted []netsim.EntryID
		for _, ev := range f.Events {
			switch ev.Kind {
			case EventAlarm:
				alarms = append(alarms, ev.Detail)
			case EventRerouted:
				rerouted = append(rerouted, ev.Entry)
			}
		}
		if !slices.Equal(alarms, []string{"uniform-failure"}) {
			t.Fatalf("verified=%v: alarms %q, want one uniform report", verified, alarms)
		}
		if !slices.Equal(rerouted, protected) {
			t.Fatalf("verified=%v: rerouted %v, want %v in that order", verified, rerouted, protected)
		}
		for _, e := range protected {
			if !f.Rerouted("seattle", e) {
				t.Fatalf("verified=%v: entry %d is not on its backup", verified, e)
			}
		}
		if cmds := client.Stats.Calls - reads; cmds != uint64(len(protected)) {
			t.Fatalf("verified=%v: seattle's agent served %d commands (%d calls, %d restart reads), want one per entry: %d",
				verified, cmds, client.Stats.Calls, reads, len(protected))
		}
	}
}
