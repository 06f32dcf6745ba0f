package fancy

import (
	"fmt"
	"strings"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// TestMonitorMultipleDownstreams: §3 — "each upstream FANcY switch sending
// packets to a downstream FANcY switch establishes counting sessions with
// the downstream". One upstream switch runs independent session sets on
// two egress ports; a failure on one link must flag only that port.
func TestMonitorMultipleDownstreams(t *testing.T) {
	s := sim.New(51)
	src := netsim.NewHost(s, "src")
	up := netsim.NewSwitch(s, "up", 3)
	d1 := netsim.NewSwitch(s, "down1", 2)
	d2 := netsim.NewSwitch(s, "down2", 2)
	sink1 := netsim.NewHost(s, "sink1")
	sink2 := netsim.NewHost(s, "sink2")
	lc := netsim.LinkConfig{Delay: 5 * sim.Millisecond, RateBps: 10e9}
	netsim.Connect(s, src, 0, up, 0, lc)
	l1 := netsim.Connect(s, up, 1, d1, 0, lc)
	netsim.Connect(s, up, 2, d2, 0, lc)
	netsim.Connect(s, d1, 1, sink1, 0, lc)
	netsim.Connect(s, d2, 1, sink2, 0, lc)
	sink1.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
	sink2.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})

	// Entry 10 exits via port 1, entry 11 via port 2 — the same entry IDs
	// are dedicated on both ports (per-port state).
	up.Routes.InsertEntry(10, netsim.Route{Port: 1, Backup: -1})
	up.Routes.InsertEntry(11, netsim.Route{Port: 2, Backup: -1})
	d1.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})
	d2.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})

	det, err := NewDetector(s, up, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, downstream := range []*netsim.Switch{d1, d2} {
		dd, err := NewDetector(s, downstream, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.ListenPort(0)
	}
	out1 := det.MonitorPort(1)
	out2 := det.MonitorPort(2)
	var events []Event
	det.OnEvent = func(ev Event) { events = append(events, ev) }

	for _, e := range []netsim.EntryID{10, 11} {
		entry := e
		gap := 4 * sim.Millisecond
		var tick func()
		tick = func() {
			if s.Now() >= 6*sim.Second {
				return
			}
			src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Proto: netsim.ProtoUDP, Size: 800})
			s.After(gap, tick)
		}
		s.After(0, tick)
	}

	// Fail only the up→d1 link for entry 10.
	l1.AB.SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, 10))
	s.Run(6 * sim.Second)

	if !det.Flagged(1, 10) {
		t.Fatal("failed entry on port 1 not flagged")
	}
	if det.Flagged(2, 11) || det.Flagged(2, 10) {
		t.Fatal("healthy port 2 flagged")
	}
	if out1.Flags.Count() != 1 || out2.Flags.Count() != 0 {
		t.Fatalf("flag counts = %d/%d, want 1/0", out1.Flags.Count(), out2.Flags.Count())
	}
	for _, ev := range events {
		if ev.Kind == EventDedicated && ev.Port != 1 {
			t.Errorf("event on port %d, want only port 1: %v", ev.Port, ev)
		}
	}
	// Both ports cycle sessions independently.
	if det.SessionsCompleted(1) == 0 || det.SessionsCompleted(2) == 0 {
		t.Error("sessions not cycling on both ports")
	}
}

// Hot-path microbenchmarks for the per-packet work on a monitored port.

func benchDetector(b *testing.B, entry netsim.EntryID) {
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw", 2)
	det, err := NewDetector(s, sw, testCfg)
	if err != nil {
		b.Fatal(err)
	}
	det.MonitorPort(1)
	// Put the per-entry/tree unit into Counting by faking the handshake.
	s.Run(5 * sim.Millisecond)
	for _, fsm := range det.monitors[1].dedicated {
		fsm.state = sCounting
	}
	det.monitors[1].tree.state = sCounting

	pkt := &netsim.Packet{Entry: entry, Proto: netsim.ProtoUDP, Size: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Tagged = false
		pkt.Size = 1000
		det.OnEgress(pkt, 1)
	}
}

func BenchmarkEgressDedicatedCounter(b *testing.B) { benchDetector(b, 10) }
func BenchmarkEgressTreeHashing(b *testing.B)      { benchDetector(b, 5000) }

// TestPortRangePanics: every call that opens sessions on a port, or
// addresses a port's control messages, panics on a port the switch does
// not have, naming the switch and the port. Otherwise the sessions would
// lose every control message to the switch's NoRoute count unreported.
func TestPortRangePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(d *Detector, port int)
	}{
		{"MonitorPort", func(d *Detector, port int) { d.MonitorPort(port) }},
		{"ListenPort", func(d *Detector, port int) { d.ListenPort(port) }},
		{"ListenCustom", func(d *Detector, port int) { d.ListenCustom(port, NewSizeHistogramUnit()) }},
		{"SetPeerAddr", func(d *Detector, port int) { d.SetPeerAddr(port, netsim.IPv4(10, 0, 0, 2)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, port := range []int{2, 99, -1} {
				s := sim.New(1)
				det, err := NewDetector(s, netsim.NewSwitch(s, "sw7", 2), testCfg)
				if err != nil {
					t.Fatal(err)
				}
				got := func() (msg any) {
					defer func() { msg = recover() }()
					c.call(det, port)
					return nil
				}()
				want := fmt.Sprintf("switch sw7 has no port %d", port)
				if s, _ := got.(string); !strings.Contains(s, want) {
					t.Errorf("%s(%d) on a 2-port switch: panic %v, want one containing %q", c.name, port, got, want)
				}
				if s.Pending() != 0 {
					t.Errorf("%s(%d) scheduled %d events before panicking", c.name, port, s.Pending())
				}
			}
			// The last port is a port.
			s := sim.New(1)
			det, err := NewDetector(s, netsim.NewSwitch(s, "sw7", 2), testCfg)
			if err != nil {
				t.Fatal(err)
			}
			c.call(det, 1)
		})
	}
}
