package reroute

import (
	"slices"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// fig10bed reproduces the §6.1 testbed topology at simulation scale:
//
//	src — up —(primary, failure injected)— down — dst
//	        \—(backup)————————————————————/
type fig10bed struct {
	*netsim.LinkBed // Link is the primary
	det             *fancy.Detector
	app             *App
	arrived         map[netsim.EntryID]int
}

func newFig10(t *testing.T, cfg fancy.Config) *fig10bed {
	t.Helper()
	lc := netsim.LinkConfig{Delay: 2 * sim.Millisecond, RateBps: 10e9}
	lb := netsim.NewLinkBed(sim.New(1), lc, lc, true)
	pair, err := fancy.DeployLink(lb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &fig10bed{LinkBed: lb, det: pair.Upstream, arrived: make(map[netsim.EntryID]int)}
	b.Dst.Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) { b.arrived[p.Entry]++ })
	b.app = New(b.Sim, b.det, 1)
	b.det.OnEvent = func(ev fancy.Event) { b.app.HandleEvent(ev) }
	return b
}

func (b *fig10bed) protect(entry netsim.EntryID) {
	route := b.Up.Routes.InsertEntry(entry, netsim.Route{Port: 1, Backup: 2})
	b.app.Protect(entry, route)
}

func (b *fig10bed) udp(entry netsim.EntryID, pps int, stop sim.Time) {
	gap := sim.Second / sim.Time(pps)
	var tick func()
	tick = func() {
		if b.Sim.Now() >= stop {
			return
		}
		b.Src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Proto: netsim.ProtoUDP, Size: 1000})
		b.Sim.After(gap, tick)
	}
	b.Sim.After(0, tick)
}

var cfg = fancy.Config{
	HighPriority: []netsim.EntryID{10},
	Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
	TreeSeed:     7,
}

func TestDedicatedEntryReroutedSubSecond(t *testing.T) {
	b := newFig10(t, cfg)
	b.protect(10)
	b.udp(10, 500, 6*sim.Second)
	const failAt = 2 * sim.Second
	b.Link.AB.SetFailure(netsim.FailEntries(3, failAt, 1.0, 10))
	b.Sim.Run(6 * sim.Second)

	at, ok := b.app.ReroutedAt[10]
	if !ok {
		t.Fatal("entry never rerouted")
	}
	if lat := at - failAt; lat > sim.Second {
		t.Errorf("reroute latency = %v, want sub-second (§6.1)", lat)
	}
	if !b.app.Rerouted(10) {
		t.Error("Rerouted(10) = false")
	}
	// Traffic must keep flowing after the reroute: ≈500 pps × ≈3.7 s
	// remaining ≥ 1500 packets beyond what arrived pre-failure (≈1000).
	if got := b.arrived[10]; got < 2300 {
		t.Errorf("only %d packets arrived; reroute did not restore traffic", got)
	}
}

func TestTreeEntryRerouted(t *testing.T) {
	b := newFig10(t, cfg)
	const entry = netsim.EntryID(77) // best effort
	b.protect(entry)
	b.udp(entry, 500, 8*sim.Second)
	const failAt = 2 * sim.Second
	b.Link.AB.SetFailure(netsim.FailEntries(4, failAt, 1.0, entry))
	b.Sim.Run(8 * sim.Second)

	at, ok := b.app.ReroutedAt[entry]
	if !ok {
		t.Fatal("tree-monitored entry never rerouted")
	}
	// Tree detection needs ≈3 zooming intervals (3×200 ms) plus protocol
	// overhead: still sub-second as in Figure 10.
	if lat := at - failAt; lat > 1500*sim.Millisecond {
		t.Errorf("reroute latency = %v, want ≈3 zooming intervals", lat)
	}
}

func TestOnlyAffectedEntryRerouted(t *testing.T) {
	b := newFig10(t, cfg)
	b.protect(10)
	const healthy = netsim.EntryID(80)
	b.protect(healthy)
	b.udp(10, 500, 6*sim.Second)
	b.udp(healthy, 500, 6*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(5, 2*sim.Second, 1.0, 10))
	b.Sim.Run(6 * sim.Second)

	if !b.app.Rerouted(10) {
		t.Fatal("failed entry not rerouted")
	}
	if b.app.Rerouted(healthy) {
		t.Error("healthy entry rerouted: rerouting is not selective")
	}
}

func TestPartialLossReroute(t *testing.T) {
	// Figure 10 also shows detection at 1% and 10% loss.
	for _, rate := range []float64{0.10, 0.01} {
		b := newFig10(t, cfg)
		b.protect(10)
		b.udp(10, 2000, 8*sim.Second)
		b.Link.AB.SetFailure(netsim.FailEntries(6, 2*sim.Second, rate, 10))
		b.Sim.Run(8 * sim.Second)
		at, ok := b.app.ReroutedAt[10]
		if !ok {
			t.Fatalf("loss rate %.0f%%: never rerouted", rate*100)
		}
		if lat := at - 2*sim.Second; lat > sim.Second {
			t.Errorf("loss rate %.0f%%: reroute latency %v, want sub-second", rate*100, lat)
		}
	}
}

func TestUniformFailureReroutesEverything(t *testing.T) {
	b := newFig10(t, cfg)
	for e := netsim.EntryID(50); e < 70; e++ {
		b.protect(e)
		b.udp(e, 100, 6*sim.Second)
	}
	b.Link.AB.SetFailure(netsim.FailUniform(8, 2*sim.Second, 0.5))
	b.Sim.Run(6 * sim.Second)
	for e := netsim.EntryID(50); e < 70; e++ {
		if !b.app.Rerouted(e) {
			t.Fatalf("entry %d not rerouted on uniform failure", e)
		}
	}
}

func TestRestore(t *testing.T) {
	b := newFig10(t, cfg)
	b.protect(10)
	b.udp(10, 500, 4*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(9, sim.Second, 1.0, 10))
	b.Sim.Run(4 * sim.Second)
	if !b.app.Rerouted(10) {
		t.Fatal("precondition: entry rerouted")
	}
	b.app.Restore(10)
	if b.app.Rerouted(10) {
		t.Error("Restore did not revert the route")
	}
	if _, ok := b.app.ReroutedAt[10]; ok {
		t.Error("Restore did not clear ReroutedAt")
	}
}

func TestUnprotectedEntryIgnored(t *testing.T) {
	b := newFig10(t, cfg)
	b.udp(10, 500, 4*sim.Second) // entry 10 dedicated but NOT protected
	b.Link.AB.SetFailure(netsim.FailEntries(10, sim.Second, 1.0, 10))
	b.Sim.Run(4 * sim.Second)
	if len(b.app.ReroutedAt) != 0 {
		t.Error("unprotected entry was rerouted")
	}
}

// The fleet's correlator drives the app through Names / SetBackup / Divert
// instead of HandleEvent: Names is HandleEvent's dispatch without the side
// effect, Divert is the per-entry commit.
func TestGateCommands(t *testing.T) {
	b := newFig10(t, cfg)
	b.protect(10) // dedicated
	b.protect(77) // tree
	b.protect(78) // tree
	diverted := 0
	b.app.OnReroute = func(netsim.EntryID, sim.Time) { diverted++ }

	leaf77 := fancy.Event{Kind: fancy.EventTreeLeaf, Port: 1, Path: b.det.EntryPath(1, 77)}
	for _, tc := range []struct {
		name string
		ev   fancy.Event
		want []netsim.EntryID
	}{
		{"dedicated", fancy.Event{Kind: fancy.EventDedicated, Port: 1, Entry: 10}, []netsim.EntryID{10}},
		{"dedicated, unprotected", fancy.Event{Kind: fancy.EventDedicated, Port: 1, Entry: 11}, nil},
		{"tree leaf", leaf77, []netsim.EntryID{77}},
		{"uniform", fancy.Event{Kind: fancy.EventUniform, Port: 1}, []netsim.EntryID{10, 77, 78}},
		{"link down", fancy.Event{Kind: fancy.EventLinkDown, Port: 1}, []netsim.EntryID{10, 77, 78}},
		{"other port", fancy.Event{Kind: fancy.EventUniform, Port: 2}, nil},
	} {
		var got []netsim.EntryID
		for _, e := range []netsim.EntryID{10, 77, 78} {
			if Names(b.det, 1, tc.ev, e) {
				got = append(got, e)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%s: named %v, want %v", tc.name, got, tc.want)
		}
	}
	if diverted != 0 || b.app.Rerouted(10) || b.app.Rerouted(77) {
		t.Fatal("Names diverted an entry; it must be side-effect free")
	}

	route, ok := b.app.Route(77)
	if !ok || route.Port != 1 || route.Backup != 2 {
		t.Fatalf("Route(77) = %+v, %v; want the protected handle", route, ok)
	}
	if _, ok := b.app.Route(99); ok {
		t.Fatal("Route(99) found an unprotected entry")
	}

	if b.app.SetBackup(99, 2) {
		t.Fatal("SetBackup accepted an unprotected entry")
	}
	if !b.app.SetBackup(77, -1) {
		t.Fatal("SetBackup refused a protected entry")
	}
	b.app.Divert(77)
	if b.app.Rerouted(77) || diverted != 0 {
		t.Fatal("Divert flipped an entry that has no backup")
	}
	b.app.SetBackup(77, 2) // the repair: a safe alternate next hop
	b.app.Divert(77)
	b.app.Divert(77) // a re-issued commit is idempotent
	b.app.Divert(99) // unprotected: no-op
	if !b.app.Rerouted(77) || !route.UseBackup || route.Backup != 2 || diverted != 1 {
		t.Fatalf("after Divert: rerouted=%v route=%+v notifications=%d; want one diversion to port 2",
			b.app.Rerouted(77), route, diverted)
	}
	if _, ok := b.app.ReroutedAt[77]; !ok || len(b.app.ReroutedAt) != 1 {
		t.Fatalf("ReroutedAt = %v, want entry 77 only", b.app.ReroutedAt)
	}
}

// A link-wide event diverts every protected entry, and the order matters
// beyond the app: in the fleet each OnReroute sends a report, so the order
// reaches the management sequence numbers and the fleet event log. The
// entries are protected out of order, so an app that walked its entry map
// would show a rotation of the protect order, never the ascending one.
func TestHandleEventDivertsInEntryOrder(t *testing.T) {
	protectOrder := []netsim.EntryID{40, 11, 75, 23, 62, 8}
	want := []netsim.EntryID{8, 11, 23, 40, 62, 75}
	for _, kind := range []fancy.EventKind{fancy.EventUniform, fancy.EventLinkDown} {
		for run := 0; run < 20; run++ {
			b := newFig10(t, cfg)
			var got []netsim.EntryID
			b.app.OnReroute = func(e netsim.EntryID, _ sim.Time) { got = append(got, e) }
			for _, e := range protectOrder {
				b.protect(e)
			}
			b.app.HandleEvent(fancy.Event{Kind: kind, Port: 1})
			if len(got) != len(want) {
				t.Fatalf("%v, run %d: OnReroute order %v, want %v", kind, run, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v, run %d: OnReroute order %v, want %v", kind, run, got, want)
				}
			}
		}
	}
}
