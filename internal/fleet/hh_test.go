package fleet

import (
	"strings"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// hhFleetCfg is a fleet with no static high-priority entries: every
// dedicated counter is a dynamic slot driven by the allocation loop.
func hhFleetCfg(slots int) Config {
	return Config{
		Fancy: fancy.Config{
			Tree:     tree.Params{Width: 16, Depth: 2, Split: 2, Pipelined: true},
			TreeSeed: 3,
		},
		HH: &HHFleetConfig{
			Sketch:       hh.Params{Stages: 3, Width: 32, Seed: 11},
			DynamicSlots: slots,
		},
	}
}

// hot is the prefix the allocation loop must find on its own.
const hot = netsim.EntryID(20)

// hotLineTrial is lineTrial for the hot prefix: a 4 Mb/s flow until stop,
// B->C blackholing it from 600 ms on.
func hotLineTrial(seed int64, cfg Config, stop, duration sim.Time) Trial {
	tr := lineTrial(seed, cfg, 0, duration)
	tr.Routes = map[netsim.EntryID]string{hot: "H2"}
	tr.Flows = []Flow{{From: "H1", Entry: hot, RateBps: 4e6, Until: stop}}
	tr.Faults = []Fault{grayAt(600*sim.Millisecond, "B", "C", hot)}
	return tr
}

// TestHHFleetPromoteDetectDemote is the allocation loop end to end: a hot
// prefix is promoted into a dynamic dedicated slot, a gray failure on it
// is then detected at dedicated-counter speed, and once the flow stops
// the slot is demoted and returned.
func TestHHFleetPromoteDetectDemote(t *testing.T) {
	// Heavy flow from t=0; with 100 ms digests and promoteAfter=2 the
	// B->C agent promotes it by ~300 ms, well before the failure.
	r := start(t, hotLineTrial(21, hhFleetCfg(2), 1500*sim.Millisecond, 1200*sim.Millisecond))
	f, s := r.Fleet, r.Sim
	r.Finish()

	bPort := r.Net.PortOf["B"]["C"]
	if _, ok := f.Detectors["B"].Promoted(bPort, hot); !ok {
		t.Fatal("hot entry was not promoted on B->C")
	}
	// The failure must surface through the dynamic dedicated counter, not
	// tree zooming: a dedicated detection event for the promoted entry.
	var dedicatedAt sim.Time
	for _, ev := range f.Events {
		if ev.Kind == EventAlarm && strings.Contains(ev.Detail, "dedicated") {
			dedicatedAt = ev.Time
			break
		}
	}
	if dedicatedAt == 0 {
		t.Fatalf("no dedicated alarm in the fleet log: %v", f.Events)
	}
	if dedicatedAt > 900*sim.Millisecond {
		t.Fatalf("dedicated alarm at %v, want within ~3 exchange intervals of the 600 ms failure", dedicatedAt)
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("Localized() = %v, want [B->C]", got)
	}

	snap := f.Snapshot()
	if !snap.HHEnabled {
		t.Fatal("snapshot does not mark HH enabled")
	}
	if snap.HH.Reports == 0 || snap.HH.Promotions == 0 {
		t.Fatalf("allocation loop idle: %+v", snap.HH)
	}
	if snap.HH.Occupied == 0 {
		t.Fatalf("no occupied dynamic slot while the flow is hot: %+v", snap.HH)
	}
	if snap.Stats.HHReports == 0 || snap.Stats.Promotions == 0 {
		t.Fatalf("detector HH stats not summed: %+v", snap.Stats)
	}
	if !strings.Contains(snap.Report(), "hh-alloc:") {
		t.Fatal("Report() lacks the hh-alloc line")
	}

	// The flow stops at 1.5 s; demoteAfter=3 empty digests later every
	// agent lets go of the slot.
	s.Run(2500 * sim.Millisecond)
	if _, ok := f.Detectors["B"].Promoted(bPort, hot); ok {
		t.Fatal("cooled entry still promoted on B->C")
	}
	snap = f.Snapshot()
	if snap.HH.Demotions == 0 {
		t.Fatalf("no demotion after the flow stopped: %+v", snap.HH)
	}
	if snap.HH.Occupied != 0 {
		t.Fatalf("dynamic slots still occupied after cooling: %+v", snap.HH)
	}
	if snap.HH.DecodeErrors != 0 || snap.HH.ApplyErrors != 0 {
		t.Fatalf("allocation loop errored: %+v", snap.HH)
	}
	if snap.HH.Reports == 0 {
		t.Errorf("no digest reached an allocator: %+v", snap.HH)
	}
}

// TestHHFleetSurvivesPartition: the allocation loop is local to each
// switch, so a management-plane partition must not stop promotions.
func TestHHFleetSurvivesPartition(t *testing.T) {
	cfg := hhFleetCfg(2)
	cfg.Mgmt = &mgmt.Config{Loss: 0.2, Jitter: sim.Millisecond}
	tr := hotLineTrial(22, cfg, sim.Second, 800*sim.Millisecond)
	tr.Faults = []Fault{{Kind: FaultPartition, Switch: "B"}}
	r := start(t, tr)
	r.Finish()

	if _, ok := r.Fleet.Detectors["B"].Promoted(r.Net.PortOf["B"]["C"], hot); !ok {
		t.Fatal("partitioned switch stopped promoting")
	}
}
