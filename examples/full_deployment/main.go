// Full deployment: FANcY at every switch of the Abilene backbone.
//
// The paper's intended deployment (§4.3): every switch monitors every one
// of its links, so a gray failure anywhere is both detected AND localized
// to the exact switch port. This program builds the 11-node Abilene
// research backbone, routes traffic between Seattle and Atlanta over
// shortest paths, deploys FANcY on every link with the fleet control plane,
// injects a gray failure on the Kansas City → Indianapolis link for one
// prefix, and shows that precisely that port flags it while every other
// monitored port on the path stays silent.
//
//	go run ./examples/full_deployment
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/netsim"
	"fancy/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(11)

	// The Abilene backbone, with a customer host on each coast.
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "cust-west", Attach: "seattle"},
		{Name: "cust-south", Attach: "atlanta"},
	}
	n, err := topo.Build(s, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Two customer prefixes terminate in Atlanta; route everything.
	const pfxVideo = fancy.EntryID(100) // dedicated
	const pfxBulk = fancy.EntryID(900)  // best effort
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{
		pfxVideo: "cust-south", pfxBulk: "cust-south",
	}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	f, err := fleet.New(s, n, fleet.Config{Fancy: fancy.Config{
		HighPriority: []fancy.EntryID{pfxVideo},
		Tree:         tree.Params{Width: 64, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     5,
	}})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "deployed FANcY on %d switches, %d links monitored in both directions\n\n",
		len(f.Detectors), len(spec.Links))

	// Seattle → Atlanta traffic crosses denver→kansascity→{indianapolis|houston}→atlanta.
	send := func(entry fancy.EntryID, pps int, stop fancy.Time) {
		host := n.Hosts["cust-west"]
		gap := fancy.Second / fancy.Time(pps)
		var tick func()
		tick = func() {
			if s.Now() >= stop {
				return
			}
			host.Send(&fancy.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Src: n.HostAddr("cust-west"), Proto: netsim.ProtoUDP, Size: 1200})
			s.After(gap, tick)
		}
		s.After(0, tick)
	}
	send(pfxVideo, 400, 10*fancy.Second)
	send(pfxBulk, 400, 10*fancy.Second)

	// A line card in Kansas City corrupts 2% of the video prefix's
	// packets toward Indianapolis.
	victim := [2]string{"kansascity", "indianapolis"}
	fmt.Fprintf(stdout, "injecting 2%% gray loss for prefix %d on %s→%s at t=3s\n\n",
		pfxVideo, victim[0], victim[1])
	n.Direction(victim[0], victim[1]).SetFailure(
		netsim.FailEntries(13, 3*fancy.Second, 0.02, pfxVideo))

	s.Run(10 * fancy.Second)

	// Where was it flagged? Each link's upstream detector holds the flags.
	flaggedAt := func(entry fancy.EntryID) []string {
		var out []string
		for _, dl := range n.DirectedLinks() {
			if f.Detectors[dl.From].Flagged(n.PortOf[dl.From][dl.To], entry) {
				out = append(out, dl.String())
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "prefix %d flagged at: %v\n", pfxVideo, flaggedAt(pfxVideo))
	fmt.Fprintf(stdout, "prefix %d flagged at: %v (healthy: must be empty)\n\n", pfxBulk, flaggedAt(pfxBulk))

	for _, ev := range f.Events {
		if ev.Kind == fleet.EventAlarm && ev.Entry == pfxVideo {
			sw, _, _ := strings.Cut(ev.Link, "->")
			fmt.Fprintf(stdout, "first detection: switch %s at %.2fs (%.0f ms after failure)\n",
				sw, ev.Time.Seconds(), (ev.Time-3*fancy.Second).Seconds()*1000)
			break
		}
	}
	fmt.Fprintln(stdout, "\nOnly the faulty port's upstream switch raises the flag: the gray")
	fmt.Fprintln(stdout, "failure is localized to (switch port, prefix) — enough to reroute or page.")
	return 0
}
