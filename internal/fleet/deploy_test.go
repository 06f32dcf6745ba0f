package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

// flaggedAt lists the directed links whose upstream detector flags e.
func flaggedAt(f *Fleet, e netsim.EntryID) []string {
	var out []string
	for _, dl := range f.Net.DirectedLinks() {
		if f.Detectors[dl.From].Flagged(f.Net.PortOf[dl.From][dl.To], e) {
			out = append(out, dl.String())
		}
	}
	return out
}

// TestFullDeployment holds New to the full deployment of §4.3: every
// direction of every link runs counting sessions, and a gray failure is
// flagged by the upstream detector of the failing direction and nowhere
// else — "identifying both the switch port suffering from a gray failure
// and the affected traffic".
func TestFullDeployment(t *testing.T) {
	const bestEffort = netsim.EntryID(777) // not in HighPriority: the tree counts it
	// Dedicated entry 10 lost on B→C: flagged at B->C only.
	bc := lineTrial(2, fleetCfg(entry), 2*sim.Second, 8*sim.Second)
	// Entry 20 sent H2 → H1 and lost on the reverse path C→B.
	cb := lineTrial(3, fleetCfg(20), 0, 8*sim.Second)
	cb.Routes = map[netsim.EntryID]string{20: "H1"}
	cb.Flows = []Flow{{From: "H2", Entry: 20, RateBps: 2e6}}
	cb.Faults = []Fault{grayAt(2*sim.Second, "C", "B", 20)}
	// A best-effort entry lost on A→B.
	ab := lineTrial(4, fleetCfg(entry), 0, 10*sim.Second)
	ab.Routes = map[netsim.EntryID]string{bestEffort: "H2"}
	ab.Flows = []Flow{{From: "H1", Entry: bestEffort, RateBps: 2e6}}
	ab.Faults = []Fault{grayAt(2*sim.Second, "A", "B", bestEffort)}
	// No traffic at all: control messages alone keep sessions cycling.
	idle := lineTrial(5, fleetCfg(entry), 0, 2*sim.Second)
	idle.Routes, idle.Flows, idle.Faults = nil, nil, nil
	abilene := Trial{Seed: 9, Spec: topo.Abilene(), Config: fleetCfg(entry), Duration: 2 * sim.Second}

	for _, tc := range []struct {
		name     string
		trial    Trial
		entry    netsim.EntryID
		want     []string            // links flagging entry; the only links raising alarms
		sessions []topo.DirectedLink // nil: every directed link
	}{
		{"dedicated entry lost on B to C", bc, entry, []string{"B->C"}, nil},
		{"reverse direction C to B", cb, 20, []string{"C->B"}, nil},
		{"tree entry lost on A to B", ab, bestEffort, []string{"A->B"}, nil},
		{"sessions with no traffic", idle, entry, nil, nil},
		{"Abilene interior link", abilene, entry, nil, []topo.DirectedLink{{From: "kansascity", To: "denver"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := start(t, tc.trial)
			r.Finish()
			f := r.Fleet
			if got := flaggedAt(f, tc.entry); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("entry %d flagged at %v, want %v", tc.entry, got, tc.want)
			}
			// A hop that saw the same traffic but no loss stays silent.
			for _, ev := range f.Events {
				if ev.Kind == EventAlarm && (len(tc.want) == 0 || ev.Link != tc.want[0]) {
					t.Errorf("alarm off the failing link: %v", ev)
				}
			}
			links := tc.sessions
			if links == nil {
				links = r.Net.DirectedLinks()
			}
			for _, dl := range links {
				if f.Detectors[dl.From].SessionsCompleted(r.Net.PortOf[dl.From][dl.To]) == 0 {
					t.Errorf("no sessions on %v", dl)
				}
			}
		})
	}
}

// TestDeploymentPacketTranscriptStable: the same seed must replay the same
// packet trace (DESIGN.md §8), down to the order of equal-time events. Five
// same-seed Abilene fleets record every packet event on every directed
// link for 300 ms; the digests must agree. That holds only if New opens
// the monitors in a fixed order: each MonitorPort queues its port's first
// sessions at t = 0.
func TestDeploymentPacketTranscriptStable(t *testing.T) {
	digest := func() string {
		s := sim.New(7)
		n, err := topo.Build(s, topo.Abilene())
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InstallShortestPaths(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := New(s, n, fleetCfg(entry)); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b []byte
		events := 0
		for _, dl := range n.DirectedLinks() {
			link := dl.String()
			n.Direction(dl.From, dl.To).SetCapture(func(ev netsim.CaptureEvent) {
				b = binary.AppendVarint(b[:0], int64(ev.Time))
				b = append(b, link...)
				b = append(b, byte(ev.Kind))
				b = binary.AppendUvarint(b, uint64(len(ev.Pkt.Ctl)))
				b = append(b, ev.Pkt.Ctl...)
				h.Write(b)
				events++
			})
		}
		s.Run(300 * sim.Millisecond)
		if events == 0 {
			t.Fatal("no packet events captured")
		}
		return fmt.Sprintf("%x (%d events)", h.Sum(nil), events)
	}
	first := digest()
	for run := 1; run < 5; run++ {
		if got := digest(); got != first {
			t.Fatalf("run %d transcript %s, run 0 %s", run, got, first)
		}
	}
}
