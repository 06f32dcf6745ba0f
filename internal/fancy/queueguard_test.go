package fancy

// Congestion-guard coverage (§4.3, footnote 2). The guard matters for
// remote (multi-hop) sessions: tagged packets then cross a transit switch's
// transmit queue, and congestion drops there are indistinguishable from
// gray-failure drops in the counters alone. The guard must discard the
// affected sessions (no false positive) without suppressing the detection
// of a real gray failure once uncongested measurements flow again.

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// guardBed is the partial-deployment chain src—A—B(transit)—C—dst with a
// bottleneck on the B→C hop and a QueueGuard watching its queue.
type guardBed struct {
	s        *sim.Sim
	src, dst *netsim.Host
	a, b, c  *netsim.Switch
	l1, l2   *netsim.Link
	det      *Detector
	guard    *QueueWatch
	events   []Event
}

func newGuardBed(t *testing.T, seed int64) *guardBed {
	t.Helper()
	s := sim.New(seed)
	gb := &guardBed{s: s}
	gb.src = netsim.NewHost(s, "src")
	gb.dst = netsim.NewHost(s, "dst")
	gb.a = netsim.NewSwitch(s, "borderA", 2)
	gb.b = netsim.NewSwitch(s, "transit", 2)
	gb.c = netsim.NewSwitch(s, "borderC", 2)
	fast := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 10e9}
	// The B→C hop is the bottleneck: 100 Mbps with a shallow 30 KB queue.
	slow := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 100e6, QueueBytes: 30_000}
	netsim.Connect(s, gb.src, 0, gb.a, 0, fast)
	gb.l1 = netsim.Connect(s, gb.a, 1, gb.b, 0, fast)
	gb.l2 = netsim.Connect(s, gb.b, 1, gb.c, 0, slow)
	netsim.Connect(s, gb.c, 1, gb.dst, 0, fast)

	aAddr := netsim.IPv4(10, 255, 0, 1)
	cAddr := netsim.IPv4(10, 255, 0, 3)
	for _, sw := range []*netsim.Switch{gb.a, gb.b, gb.c} {
		sw.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})
		sw.Routes.Insert(aAddr, 32, netsim.Route{Port: 0, Backup: -1})
	}
	gb.src.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
	gb.dst.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})

	var err error
	gb.det, err = NewDetector(s, gb.a, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	detC, err := NewDetector(s, gb.c, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	gb.det.SetOwnAddr(aAddr)
	gb.det.SetPeerAddr(1, cAddr)
	detC.SetOwnAddr(cAddr)
	detC.SetPeerAddr(0, aAddr)
	detC.ListenPort(0)
	gb.det.MonitorPort(1)
	gb.det.OnEvent = func(ev Event) { gb.events = append(gb.events, ev) }

	// Guard: sample the bottleneck queue every millisecond; anything beyond
	// 10 KB counts as congested.
	gb.guard = NewQueueGuard(s, 10_000, sim.Millisecond).Watch(gb.l2.AB)
	gb.det.SetCongestionGuard(gb.guard)
	return gb
}

// udp sends a CBR stream for entry between start and stop.
func (gb *guardBed) udp(entry netsim.EntryID, rateBps float64, start, stop sim.Time) {
	const size = 1000
	gap := sim.Time(float64(size*8) / rateBps * float64(sim.Second))
	var tick func()
	tick = func() {
		if gb.s.Now() >= stop {
			return
		}
		gb.src.Send(&netsim.Packet{
			Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Proto: netsim.ProtoUDP, Size: size,
		})
		gb.s.After(gap, tick)
	}
	gb.s.ScheduleAt(start, tick)
}

func (gb *guardBed) dedicatedEvents() int {
	n := 0
	for _, ev := range gb.events {
		if ev.Kind == EventDedicated {
			n++
		}
	}
	return n
}

func TestQueueGuardSuppressesCongestionFalsePositives(t *testing.T) {
	gb := newGuardBed(t, 40)
	gb.udp(10, 2e6, 0, 6*sim.Second)
	// A 150 Mbps burst into the 100 Mbps hop between 2 s and 3 s overflows
	// the transit queue: tagged entry-10 packets are among the congestion
	// drops, which the counters alone would read as a gray failure.
	gb.udp(200, 150e6, 2*sim.Second, 3*sim.Second)
	gb.s.Run(6 * sim.Second)

	if gb.l2.AB.Stats().CongestionDrops == 0 {
		t.Fatal("burst did not overflow the bottleneck queue; test is vacuous")
	}
	if len(gb.guard.windows) == 0 || gb.guard.overSamples == 0 {
		t.Fatal("guard never saw the congested queue")
	}
	if got := gb.det.DiscardedSessions(); got == 0 {
		t.Error("no session discarded despite congestion overlapping sessions")
	}
	if n := gb.dedicatedEvents(); n != 0 {
		t.Errorf("congestion misread as gray failure: %d dedicated events", n)
	}
	if gb.det.Flagged(1, 10) {
		t.Error("entry 10 flagged by congestion drops")
	}
}

func TestQueueGuardDoesNotSuppressRealFailure(t *testing.T) {
	gb := newGuardBed(t, 41)
	gb.udp(10, 2e6, 0, 8*sim.Second)
	gb.udp(200, 150e6, 2*sim.Second, 3*sim.Second)
	// A real gray failure appears DURING the congested window and persists.
	// Sessions overlapping the window are rightly discarded; the sessions
	// after it must still expose the failure.
	gb.l1.AB.SetFailure(netsim.FailEntries(gb.s.DeriveSeed("guard/fail"),
		2500*sim.Millisecond, 1.0, 10))
	gb.s.Run(8 * sim.Second)

	if gb.dedicatedEvents() == 0 || !gb.det.Flagged(1, 10) {
		t.Fatal("guard suppressed a real gray failure")
	}
	// Detection could only come from a clean post-congestion session.
	for _, ev := range gb.events {
		if ev.Kind == EventDedicated && ev.Time <= 3*sim.Second {
			t.Errorf("dedicated event at %v, inside the congested window", ev.Time)
		}
	}
}

func TestQueueGuardWithoutCongestionStaysOut(t *testing.T) {
	// With the guard installed but no congestion, detection behaves exactly
	// as without a guard: nothing is discarded and failures flag promptly.
	gb := newGuardBed(t, 42)
	gb.udp(10, 2e6, 0, 6*sim.Second)
	gb.l1.AB.SetFailure(netsim.FailEntries(gb.s.DeriveSeed("guard/fail"),
		2*sim.Second, 1.0, 10))
	gb.s.Run(6 * sim.Second)

	if len(gb.guard.windows) != 0 {
		t.Fatalf("phantom congestion windows: %d", len(gb.guard.windows))
	}
	if gb.det.DiscardedSessions() != 0 {
		t.Errorf("%d sessions discarded without congestion", gb.det.DiscardedSessions())
	}
	if !gb.det.Flagged(1, 10) {
		t.Error("failure not detected with an idle guard installed")
	}
}
