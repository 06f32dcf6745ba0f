package fancy

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// TestPartialDeployment reproduces §4.3's remote-deployment property: FANcY
// at two border switches separated by a non-FANcY transit switch detects
// gray failures anywhere on the path between them (losing only the ability
// to pinpoint which hop failed).
func TestPartialDeployment(t *testing.T) {
	for _, failSecondHop := range []bool{false, true} {
		s := sim.New(21)
		src := netsim.NewHost(s, "src")
		dst := netsim.NewHost(s, "dst")
		a := netsim.NewSwitch(s, "borderA", 2) // FANcY upstream
		b := netsim.NewSwitch(s, "transit", 2) // no FANcY
		c := netsim.NewSwitch(s, "borderC", 2) // FANcY downstream
		lc := netsim.LinkConfig{Delay: 5 * sim.Millisecond, RateBps: 10e9}
		netsim.Connect(s, src, 0, a, 0, lc)
		l1 := netsim.Connect(s, a, 1, b, 0, lc)
		l2 := netsim.Connect(s, b, 1, c, 0, lc)
		netsim.Connect(s, c, 1, dst, 0, lc)

		aAddr := netsim.IPv4(10, 255, 0, 1)
		cAddr := netsim.IPv4(10, 255, 0, 3)
		for _, sw := range []*netsim.Switch{a, b, c} {
			sw.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})
			// Reverse routes for control replies and the A address.
			sw.Routes.Insert(aAddr, 32, netsim.Route{Port: 0, Backup: -1})
		}
		// Forward route for C's address along the chain (default covers it).
		dst.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
		src.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})

		detA, err := NewDetector(s, a, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		detC, err := NewDetector(s, c, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		detA.SetOwnAddr(aAddr)
		detA.SetPeerAddr(1, cAddr)
		detC.SetOwnAddr(cAddr)
		detC.SetPeerAddr(0, aAddr)
		detC.ListenPort(0)
		detA.MonitorPort(1)

		var events []Event
		detA.OnEvent = func(ev Event) { events = append(events, ev) }

		// Traffic on a dedicated entry.
		const entry = netsim.EntryID(10)
		gap := 5 * sim.Millisecond
		var tick func()
		tick = func() {
			if s.Now() >= 8*sim.Second {
				return
			}
			src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Proto: netsim.ProtoUDP, Size: 1000})
			s.After(gap, tick)
		}
		s.After(0, tick)

		// The failure sits on either hop of the A→C path.
		failed := l1
		if failSecondHop {
			failed = l2
		}
		failed.AB.SetFailure(netsim.FailEntries(3, 2*sim.Second, 1.0, entry))
		s.Run(8 * sim.Second)

		detected := false
		for _, ev := range events {
			if ev.Kind == EventDedicated && ev.Entry == entry {
				detected = true
				break
			}
		}
		if !detected {
			t.Errorf("failSecondHop=%v: remote deployment did not detect the path failure", failSecondHop)
		}
		if !detA.Flagged(1, entry) {
			t.Errorf("failSecondHop=%v: entry not flagged", failSecondHop)
		}
	}
}

// TestTransitFancySwitchForwardsForeignControl checks that a FANcY switch
// on the transit path of another pair's session forwards their control
// messages instead of consuming them.
func TestTransitFancySwitchForwardsForeignControl(t *testing.T) {
	s := sim.New(22)
	a := netsim.NewSwitch(s, "a", 2)
	b := netsim.NewSwitch(s, "b", 2) // FANcY too, but not a session peer
	c := netsim.NewSwitch(s, "c", 2)
	sink := netsim.NewHost(s, "sink")
	lc := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9}
	netsim.Connect(s, a, 1, b, 0, lc)
	netsim.Connect(s, b, 1, c, 0, lc)
	netsim.Connect(s, c, 1, sink, 0, lc)

	aAddr := netsim.IPv4(10, 255, 0, 1)
	cAddr := netsim.IPv4(10, 255, 0, 3)
	for _, sw := range []*netsim.Switch{a, b, c} {
		sw.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})
		sw.Routes.Insert(aAddr, 32, netsim.Route{Port: 0, Backup: -1})
	}
	detA, _ := NewDetector(s, a, testCfg)
	detB, _ := NewDetector(s, b, testCfg)
	detB.SetOwnAddr(netsim.IPv4(10, 255, 0, 2))
	detC, _ := NewDetector(s, c, testCfg)
	detC.SetOwnAddr(cAddr)
	detC.SetPeerAddr(0, aAddr)
	detC.ListenPort(0)
	detA.SetOwnAddr(aAddr)
	detA.SetPeerAddr(1, cAddr)
	detA.MonitorPort(1)

	s.Run(2 * sim.Second)
	// A's sessions must complete: B forwarded Start/Report through.
	if detA.SessionsCompleted(1) == 0 {
		t.Error("transit FANcY switch swallowed foreign control messages")
	}
	if b.Consumed > 0 {
		t.Errorf("transit switch consumed %d foreign control packets", b.Consumed)
	}
}
