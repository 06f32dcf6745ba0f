// ISP backbone: partial FANcY deployment at border routers.
//
// Topology (all links 10 ms / 100 Gbps):
//
//	customers — PE1 ——— P1 ——— P2 ——— PE2 — peers
//	            (FANcY)  (plain)(plain)  (FANcY)
//
// Only the two provider-edge routers run FANcY (§4.3's incremental
// deployment): PE1 opens counting sessions whose control messages are
// routed through the plain transit routers to PE2. A gray failure on the
// P1→P2 link — two hops away from any FANcY box — is still detected and
// localized to the affected prefixes, though only at path granularity.
//
//	go run ./examples/isp_backbone
package main

import (
	"fmt"
	"io"
	"os"

	"fancy"
	"fancy/internal/netsim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(7)

	customers := fancy.NewHost(s, "customers")
	peers := fancy.NewHost(s, "peers")
	pe1 := fancy.NewSwitch(s, "pe1", 2)
	p1 := fancy.NewSwitch(s, "p1", 2)
	p2 := fancy.NewSwitch(s, "p2", 2)
	pe2 := fancy.NewSwitch(s, "pe2", 2)

	core := netsim.LinkConfig{Delay: 10 * fancy.Millisecond, RateBps: 100e9}
	fancy.Connect(s, customers, 0, pe1, 0, core)
	fancy.Connect(s, pe1, 1, p1, 0, core)
	midLink := fancy.Connect(s, p1, 1, p2, 0, core)
	fancy.Connect(s, p2, 1, pe2, 0, core)
	fancy.Connect(s, pe2, 1, peers, 0, core)

	// Routing: everything forward by default, router loopbacks backward.
	pe1Addr := netsim.IPv4(10, 255, 0, 1)
	pe2Addr := netsim.IPv4(10, 255, 0, 4)
	for _, sw := range []*fancy.Switch{pe1, p1, p2, pe2} {
		sw.Routes.Insert(0, 0, fancy.Route{Port: 1, Backup: -1})
		sw.Routes.Insert(pe1Addr, 32, fancy.Route{Port: 0, Backup: -1})
	}
	customers.Default = netsim.PacketHandlerFunc(func(*fancy.Packet) {})
	peers.Default = netsim.PacketHandlerFunc(func(*fancy.Packet) {})

	// FANcY at the borders only. PE1 monitors its core-facing port with
	// PE2 as the remote counterpart.
	cfg := fancy.Config{
		HighPriority: []fancy.EntryID{100, 101}, // two big customer prefixes
		MemoryBytes:  20_000,
	}
	det1, err := fancy.NewDetector(s, pe1, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	det2, err := fancy.NewDetector(s, pe2, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	det1.SetOwnAddr(pe1Addr)
	det1.SetPeerAddr(1, pe2Addr)
	det2.SetOwnAddr(pe2Addr)
	det2.SetPeerAddr(0, pe1Addr)
	det2.ListenPort(0)
	det1.MonitorPort(1)

	det1.OnEvent = func(ev fancy.Event) {
		switch ev.Kind {
		case fancy.EventDedicated:
			fmt.Fprintf(stdout, "%8.3fs  PE1: loss on the PE1→PE2 path for customer prefix %d\n",
				ev.Time.Seconds(), ev.Entry)
		case fancy.EventTreeLeaf:
			fmt.Fprintf(stdout, "%8.3fs  PE1: loss on the PE1→PE2 path for best-effort path %v\n",
				ev.Time.Seconds(), ev.Path)
		case fancy.EventUniform:
			fmt.Fprintf(stdout, "%8.3fs  PE1: uniform loss on the PE1→PE2 path\n", ev.Time.Seconds())
		}
	}

	// Traffic: the two customer prefixes plus best-effort background.
	send := func(entry fancy.EntryID, pps int) {
		gap := fancy.Second / fancy.Time(pps)
		var tick func()
		tick = func() {
			if s.Now() >= 12*fancy.Second {
				return
			}
			customers.Send(&fancy.Packet{Entry: entry,
				Dst: netsim.EntryAddr(entry, 1), Proto: netsim.ProtoUDP, Size: 1200})
			s.After(gap, tick)
		}
		s.After(0, tick)
	}
	send(100, 400)
	send(101, 400)
	for e := fancy.EntryID(200); e < 210; e++ {
		send(e, 100)
	}

	// The gray failure: a dirty fiber between the two transit routers
	// corrupts ≈5% of prefix 100's and one background prefix's packets.
	fmt.Fprintln(stdout, "injecting 5% loss for prefixes 100 and 203 on the P1→P2 link at t=3s")
	midLink.AB.SetFailure(netsim.FailEntries(99, 3*fancy.Second, 0.05, 100, 203))

	s.Run(12 * fancy.Second)

	fmt.Fprintln(stdout, "\nfinal state at PE1:")
	for _, e := range []fancy.EntryID{100, 101, 203, 207} {
		fmt.Fprintf(stdout, "  prefix %d flagged: %v\n", e, det1.Flagged(1, e))
	}
	fmt.Fprintln(stdout, "\nNote: PE1 localizes the loss to (prefixes, PE1→PE2 path); pinpointing")
	fmt.Fprintln(stdout, "the P1→P2 hop requires FANcY on the transit routers too (§4.3).")
	return 0
}
