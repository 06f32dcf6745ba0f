package fleet

import (
	"strings"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

func fleetCfg(entries ...netsim.EntryID) Config {
	return Config{
		Fancy: fancy.Config{
			HighPriority: entries,
			Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
			TreeSeed:     3,
		},
	}
}

// burstUDP sends count-packet bursts every interval, to build transient
// queues on a slow link without destabilizing it.
func burstUDP(n *topo.Network, from string, entry netsim.EntryID, count int, interval, start, stop sim.Time) {
	host := n.Hosts[from]
	var tick func()
	tick = func() {
		if n.Sim.Now() >= stop {
			return
		}
		for i := 0; i < count; i++ {
			host.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Src: n.HostAddr(from), Proto: netsim.ProtoUDP, Size: 1000})
		}
		n.Sim.After(interval, tick)
	}
	n.Sim.ScheduleAt(start, tick)
}

// start assembles a trial or fails the test.
func start(t *testing.T, tr Trial) *Run {
	t.Helper()
	r, err := tr.Start()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// entry is the prefix every scenario below watches.
const entry = netsim.EntryID(10)

// grayAt is the fault every scenario injects: from->to blackholes e from at on.
func grayAt(at sim.Time, from, to string, e netsim.EntryID) Fault {
	return Fault{At: at, Kind: FaultGrayLink, Link: topo.DirectedLink{From: from, To: to},
		Entries: []netsim.EntryID{e}, Loss: 1}
}

// lineTrial is the small scenario: the line A—B—C with H1 at A and H2 at C,
// entry routed to H2 and probed at 2 Mb/s from H1 for the whole run, B->C
// blackholing it from failAt on.
func lineTrial(seed int64, cfg Config, failAt, duration sim.Time, faults ...Fault) Trial {
	return Trial{
		Seed: seed, Config: cfg, Duration: duration,
		Spec: topo.Spec{
			Switches: []string{"A", "B", "C"},
			Links: []topo.LinkSpec{
				{A: "A", B: "B", Delay: 2 * sim.Millisecond},
				{A: "B", B: "C", Delay: 2 * sim.Millisecond},
			},
			Hosts: []topo.HostSpec{{Name: "H1", Attach: "A"}, {Name: "H2", Attach: "C"}},
		},
		Routes: map[netsim.EntryID]string{entry: "H2"},
		Flows:  []Flow{{From: "H1", Entry: entry, RateBps: 2e6}},
		Faults: append([]Fault{grayAt(failAt, "B", "C", entry)}, faults...),
	}
}

// abileneSpec is Abilene with a host "h-<switch>" at each named switch.
func abileneSpec(at ...string) topo.Spec {
	spec := topo.Abilene()
	for _, sw := range at {
		spec.Hosts = append(spec.Hosts, topo.HostSpec{Name: "h-" + sw, Attach: sw})
	}
	return spec
}

// grayTrial is the acceptance scenario, and the shape of every internal/exp
// fleet trial: Abilene, entry owned by a host at dl.To and probed at 2 Mb/s
// from one at dl.From, protected at dl.From wherever a loop-free detour
// exists (seattle->sunnyvale detours via denver, whose own shortest path to
// sunnyvale is the direct link), dl blackholing it from failAt on.
func grayTrial(seed int64, dl topo.DirectedLink, cfg Config, failAt, duration sim.Time, faults ...Fault) Trial {
	return Trial{
		Seed: seed, Config: cfg, Duration: duration,
		Spec:    abileneSpec(dl.From, dl.To),
		Routes:  map[netsim.EntryID]string{entry: "h-" + dl.To},
		Protect: []Protection{{Switch: dl.From, Entry: entry, PrimaryTo: dl.To}},
		Flows:   []Flow{{From: "h-" + dl.From, Entry: entry, RateBps: 2e6}},
		Faults:  append([]Fault{grayAt(failAt, dl.From, dl.To, entry)}, faults...),
	}
}

var seattleSunnyvale = topo.DirectedLink{From: "seattle", To: "sunnyvale"}

// deliveries counts the entry's packets arriving at a host.
func deliveries(r *Run, host string) *int {
	n := new(int)
	r.Net.Hosts[host].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Entry == entry {
			*n++
		}
	})
	return n
}

func hasEvent(f *Fleet, kind EventKind, detailSub string) bool {
	for _, ev := range f.Events {
		if ev.Kind == kind && (detailSub == "" || strings.Contains(ev.Detail, detailSub)) {
			return true
		}
	}
	return false
}

// TestAbileneGrayLocalization is the acceptance scenario: a full Abilene
// fleet, one injected gray link, exactly one localization, reroute fired,
// time-to-localize within a few counting sessions.
func TestAbileneGrayLocalization(t *testing.T) {
	const bg = netsim.EntryID(11)
	const failAt = 2 * sim.Second
	tr := grayTrial(42, seattleSunnyvale, fleetCfg(entry, bg), failAt, 8*sim.Second)
	// Background: seattle→…→newyork.
	tr.Spec.Hosts = append(tr.Spec.Hosts, topo.HostSpec{Name: "h-newyork", Attach: "newyork"})
	tr.Routes[bg] = "h-newyork"
	tr.Flows = append(tr.Flows, Flow{From: "h-seattle", Entry: bg, RateBps: 1e6})
	r := start(t, tr)
	f := r.Fleet
	// Count target-entry arrivals, to prove the detour actually delivers.
	delivered := deliveries(r, "h-sunnyvale")
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "seattle->sunnyvale" {
		t.Fatalf("localized %v, want exactly [seattle->sunnyvale]", got)
	}
	ttl := f.LocalizedAt("seattle->sunnyvale") - failAt
	sessions := fancy.DefaultExchangeInterval
	if ttl <= 0 || ttl > 10*sessions {
		t.Fatalf("time-to-localize %v, want within a few counting sessions (%v each)", ttl, sessions)
	}
	if !f.Rerouted("seattle", entry) {
		t.Fatal("protected entry was not rerouted")
	}
	if f.Reroutes == 0 || !hasEvent(f, EventRerouted, "") {
		t.Fatal("no reroute event recorded")
	}
	if got := f.AffectedEntries("seattle->sunnyvale"); len(got) != 1 || got[0] != entry {
		t.Fatalf("affected entries %v, want [%d]", got, entry)
	}
	// The detour via denver must deliver: well over half the post-failure
	// packets arrive (only the detection window's worth is lost).
	if *delivered < 1200 {
		t.Fatalf("only %d target packets delivered, detour not working", *delivered)
	}
	if f.Suppressed != 0 {
		t.Fatalf("clean gray failure, but %d alarms suppressed", f.Suppressed)
	}

	snap := f.Snapshot()
	var gray []LinkReport
	for _, lr := range snap.Links {
		if lr.Health == HealthGray {
			gray = append(gray, lr)
		}
	}
	if len(gray) != 1 || gray[0].Link != "seattle->sunnyvale" {
		t.Fatalf("snapshot gray links %v, want exactly seattle->sunnyvale", gray)
	}
	for _, lr := range snap.Links {
		if lr.Link != "seattle->sunnyvale" && lr.Localized {
			t.Fatalf("false localization on %s", lr.Link)
		}
	}
	if !strings.Contains(snap.Report(), "seattle->sunnyvale") {
		t.Fatal("report does not mention the gray link")
	}
}

// TestFleetDeterminism: identical seeds must yield byte-identical reports
// and event logs.
func TestFleetDeterminism(t *testing.T) {
	run := func() (string, int) {
		r := start(t, grayTrial(42, seattleSunnyvale, fleetCfg(entry), 2*sim.Second, 5*sim.Second))
		r.Finish()
		return r.Fleet.Snapshot().Report(), len(r.Fleet.Events)
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1 != r2 || e1 != e2 {
		t.Fatalf("non-deterministic fleet: events %d vs %d\n--- run 1 ---\n%s--- run 2 ---\n%s",
			e1, e2, r1, r2)
	}
}

// TestCongestionSuppressed: alarms raised while the link's transmit queue
// is congested are discarded (§4.3 footnote 2), not localized.
func TestCongestionSuppressed(t *testing.T) {
	cfg := fleetCfg(entry)
	cfg.CongestionBytes = 5000
	tr := lineTrial(7, cfg, 2*sim.Second, 6*sim.Second)
	// B→C runs at 10 Mb/s so bursts queue up; 20-packet bursts every 20 ms
	// (8 Mb/s average) oscillate the queue between ~20 kB and empty.
	tr.Spec.Links[1].RateBps = 10e6
	tr.Flows = nil
	r := start(t, tr)
	f := r.Fleet
	burstUDP(r.Net, "H1", entry, 20, 20*sim.Millisecond, 0, 6*sim.Second)
	r.Finish()

	if got := f.Localized(); len(got) != 0 {
		t.Fatalf("localized %v despite congestion", got)
	}
	if f.Suppressed == 0 || !hasEvent(f, EventSuppressed, "congestion") {
		t.Fatalf("no congestion suppression recorded (suppressed=%d)", f.Suppressed)
	}
}

// TestFleetGuardOneEventPerInterval: the congestion guard costs the fleet
// one event per guard interval, however many directions it watches — 200
// in a simulated second, not one per directed link (5 600 on Abilene).
func TestFleetGuardOneEventPerInterval(t *testing.T) {
	executed := func(congestionBytes int) uint64 {
		cfg := fleetCfg(entry)
		cfg.CongestionBytes = congestionBytes
		r := start(t, Trial{
			Seed: 22, Config: cfg, Duration: sim.Second,
			Spec:   abileneSpec("seattle", "sunnyvale"),
			Routes: map[netsim.EntryID]string{entry: "h-sunnyvale"},
			Flows:  []Flow{{From: "h-seattle", Entry: entry, RateBps: 2e6}},
		})
		r.Finish()
		return r.Sim.Executed
	}
	if got := executed(0) - executed(-1); got != uint64(sim.Second/guardInterval) {
		t.Fatalf("the guard ran %d events in 1 s, want one per %v: %d", got, guardInterval, sim.Second/guardInterval)
	}
}

// TestFlappingSuppressed: a flapping link is classified as flapping and its
// counter-mismatch alarms are not misreported as a gray failure.
func TestFlappingSuppressed(t *testing.T) {
	// The gray failure arrives once the link is already established as
	// flapping: its alarms must be attributed to the flap, not localized.
	r := start(t, lineTrial(11, fleetCfg(entry), 3*sim.Second, 8*sim.Second))
	f := r.Fleet
	ch := netsim.NewChaos(r.Sim, "flap")
	ch.Start = sim.Second
	ch.DownFor = 300 * sim.Millisecond
	ch.UpFor = 100 * sim.Millisecond
	r.Net.Direction("B", "C").SetChaos(ch)
	r.Finish()

	if !hasEvent(f, EventLinkFlapping, "") {
		t.Fatal("flapping link never classified as flapping")
	}
	if got := f.Localized(); len(got) != 0 {
		t.Fatalf("localized %v, want none: flapping is not gray", got)
	}
	if f.Suppressed == 0 || !hasEvent(f, EventSuppressed, "link-flapping") {
		t.Fatalf("no flap suppression recorded (suppressed=%d)", f.Suppressed)
	}
}

// TestPeerRestartSuppressed: a downstream reboot inside the evidence window
// suppresses that window's alarms, the restart-counter read surfaces the
// reboot, and the persisting failure still localizes — whether the read is
// a direct call or an RPC over a lossy management plane. With C cut off
// across the reboot the reads fail until the heal, which then surfaces it.
func TestPeerRestartSuppressed(t *testing.T) {
	const (
		restartAt = 2*sim.Second + 100*sim.Millisecond
		cutAt     = 2 * sim.Second
		healAt    = 3500 * sim.Millisecond
	)
	lossy := mgmt.Config{Loss: 0.2, Duplicate: 0.2, Jitter: sim.Millisecond}
	for _, tc := range []struct {
		name      string
		cfg       Config
		partition bool
	}{
		{"direct", fleetCfg(entry), false},
		{"mgmt", mgmtCfg(lossy, entry), false},
		{"mgmt-partition", mgmtCfg(lossy, entry), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := start(t, lineTrial(13, tc.cfg, 2*sim.Second, 8*sim.Second))
			f := r.Fleet
			r.Sim.ScheduleAt(restartAt, func() { f.Detectors["C"].Restart() })
			var cutFails, healFails uint64
			if tc.partition {
				r.Sim.ScheduleAt(cutAt, func() { f.PartitionSwitch("C"); cutFails = f.Corr.GetFails })
				r.Sim.ScheduleAt(healAt, func() { f.HealSwitch("C"); healFails = f.Corr.GetFails })
			}
			r.Finish()

			var seen []sim.Time
			for _, ev := range f.Events {
				if ev.Kind == EventPeerRestart && ev.Link == "C" {
					seen = append(seen, ev.Time)
				}
			}
			if len(seen) == 0 {
				t.Fatal("peer restart never surfaced in the event log")
			}
			if tc.partition {
				if healFails <= cutFails {
					t.Errorf("GetFails %d at the cut, %d at the heal: no read failed while C was cut off",
						cutFails, healFails)
				}
				if seen[0] < healAt {
					t.Errorf("peer restart surfaced at %v, before the heal at %v", seen[0], healAt)
				}
				return
			}
			if !hasEvent(f, EventSuppressed, "peer-restart") {
				t.Fatal("restart-window alarms were not suppressed")
			}
			// The gray failure persists past the reboot, so it must still localize.
			if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
				t.Fatalf("localized %v, want [B->C] after the restart window", got)
			}
		})
	}
}

// TestHealthStates: the sweep's per-link health resolves Down over Gray
// over Healthy.
func TestHealthStates(t *testing.T) {
	r := start(t, lineTrial(17, fleetCfg(entry), 2*sim.Second, 4*sim.Second))
	f := r.Fleet
	r.Finish()

	snap := f.Snapshot()
	byLink := make(map[string]LinkReport)
	for _, lr := range snap.Links {
		byLink[lr.Link] = lr
	}
	if h := byLink["B->C"].Health; h != HealthGray {
		t.Fatalf("B->C health %v, want GRAY", h)
	}
	if h := byLink["A->B"].Health; h != HealthHealthy {
		t.Fatalf("A->B health %v, want healthy", h)
	}
	if byLink["A->B"].Sessions == 0 {
		t.Fatal("no counting sessions completed on healthy link")
	}

	// Acknowledge clears the verdict; the persisting failure re-localizes.
	f.Acknowledge("B->C")
	if len(f.Localized()) != 0 {
		t.Fatal("Acknowledge did not clear the localization")
	}
	r.Sim.Run(8 * sim.Second)
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v after acknowledge, want [B->C] again", got)
	}
}
