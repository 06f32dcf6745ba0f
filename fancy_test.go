package fancy

import (
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	// The package-doc quick start, verbatim in spirit.
	s := NewSim(1)
	ml := NewMonitoredLink(s, Config{
		HighPriority: []EntryID{10},
		MemoryBytes:  20_000,
	})
	var events []Event
	ml.OnEvent(func(ev Event) { events = append(events, ev) })
	ml.UDP(10, 2e6, 0, 10*Second)
	ml.FailEntries(2*Second, 1.0, 10)
	s.Run(10 * Second)

	if !ml.Flagged(10) {
		t.Fatal("blackholed entry not flagged")
	}
	// The first mismatch event is the detection; later sessions keep
	// re-flagging while the failure persists.
	found := false
	for _, ev := range events {
		if ev.Kind == EventDedicated && ev.Entry == 10 {
			found = true
			if lat := ev.Time - 2*Second; lat <= 0 || lat > 500*Millisecond {
				t.Errorf("first detection latency = %v, want ≲ exchange interval", lat)
			}
			break
		}
	}
	if !found {
		t.Error("no dedicated-mismatch event raised")
	}
}

func TestMonitoredLinkTreeEntry(t *testing.T) {
	s := NewSim(2)
	ml := NewMonitoredLink(s, Config{
		HighPriority: []EntryID{10},
		MemoryBytes:  20_000,
	})
	ml.UDP(500, 2e6, 0, 10*Second) // best-effort entry
	ml.UDP(600, 2e6, 0, 10*Second) // healthy background
	ml.FailEntries(2*Second, 1.0, 500)
	s.Run(10 * Second)
	if !ml.Flagged(500) {
		t.Fatal("best-effort entry not flagged via the hash-based tree")
	}
	if ml.Flagged(600) {
		t.Error("healthy entry flagged")
	}
}

func TestMonitoredLinkTCPTraffic(t *testing.T) {
	s := NewSim(3)
	ml := NewMonitoredLink(s, Config{
		HighPriority: []EntryID{10},
		MemoryBytes:  20_000,
	})
	ml.TCP(10, 2e6, 20, 8*Second)
	ml.FailEntries(2*Second, 0.5, 10)
	s.Run(10 * Second)
	if !ml.Flagged(10) {
		t.Fatal("50% loss on TCP traffic not flagged")
	}
}

// Two TCP calls used to make two drivers that both numbered their flows from
// 0, so the second entry's connections took over the first's handlers on the
// same two hosts and half the flows never finished (80 of 160 here).
func TestMonitoredLinkTCPTwoEntries(t *testing.T) {
	s := NewSim(3)
	ml := NewMonitoredLink(s, Config{MemoryBytes: 20_000})
	ml.TCP(10, 2e6, 20, 4*Second)
	ml.TCP(11, 2e6, 20, 4*Second)
	flows := make(map[uint64]bool) // flow IDs of the two entries seen on the link
	ml.Up.OnForwarded(func(p *Packet, in, out int) {
		if out == ml.MonitorPort() && (p.Entry == 10 || p.Entry == 11) {
			flows[uint64(p.Flow)] = true
		}
	})
	s.Run(10 * Second)

	const started = 2 * 20 * 4
	if len(flows) != started {
		t.Errorf("%d distinct flow IDs on the link, want %d: the entries share flow IDs", len(flows), started)
	}
	if got := ml.tcp.Started(); got != started {
		t.Errorf("started %d flows, want %d", got, started)
	}
	if got := ml.tcp.Completed(); got != started {
		t.Errorf("%d of %d flows completed", got, started)
	}
}

func TestMonitoredLinkUniform(t *testing.T) {
	s := NewSim(4)
	ml := NewMonitoredLink(s, Config{
		HighPriority: []EntryID{10},
		Tree:         TreeParams{Width: 64, Depth: 3, Split: 2, Pipelined: true},
	})
	for e := EntryID(100); e < 300; e++ {
		ml.UDP(e, 500e3, 0, 8*Second)
	}
	uniform := false
	ml.OnEvent(func(ev Event) {
		if ev.Kind == EventUniform {
			uniform = true
		}
	})
	ml.FailEntries(2*Second, 0.5, entryRange(100, 300)...)
	s.Run(8 * Second)
	if !uniform {
		t.Error("all-entry failure not classified as uniform")
	}
}

func TestNewMonitoredLinkRejectsBadBudget(t *testing.T) {
	s := NewSim(5)
	hp := make([]EntryID, 10_000)
	for i := range hp {
		hp[i] = EntryID(i)
	}
	if _, err := NewMonitoredLinkOpts(s, Config{HighPriority: hp, MemoryBytes: 1000},
		MonitoredLinkOptions{}); err == nil {
		t.Fatal("over-budget config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMonitoredLink should panic on invalid config")
		}
	}()
	NewMonitoredLink(s, Config{HighPriority: hp, MemoryBytes: 1000})
}

func TestMonitoredLinkUniformLinkLoss(t *testing.T) {
	// FailUniform hits everything — control messages included — so a
	// total outage surfaces as link-down rather than per-entry flags.
	s := NewSim(6)
	ml := NewMonitoredLink(s, Config{HighPriority: []EntryID{10}, MemoryBytes: 20_000})
	if ml.MonitorPort() != 1 {
		t.Fatalf("MonitorPort = %d, want 1", ml.MonitorPort())
	}
	down := false
	ml.OnEvent(func(ev Event) {
		if ev.Kind == EventLinkDown {
			down = true
		}
	})
	ml.UDP(10, 1e6, 0, 4*Second)
	ml.FailUniform(1*Second, 1.0)
	s.Run(4 * Second)
	if !down {
		t.Fatal("total link loss did not raise link-down")
	}
	if !ml.Upstream.LinkDown(ml.MonitorPort()) {
		t.Error("LinkDown(port) = false during the outage")
	}
}

func TestLayoutPlan(t *testing.T) {
	cfg := Config{MemoryBytes: 20_000, HighPriority: []EntryID{1, 2, 3}}
	l, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if l.Dedicated != 3 || l.Tree.Width == 0 {
		t.Errorf("layout = %+v", l)
	}
	if l.String() == "" {
		t.Error("layout must render")
	}
}

func entryRange(lo, hi EntryID) []EntryID {
	var out []EntryID
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}
