// Full deployment: FANcY at every switch of the Abilene backbone.
//
// The paper's intended deployment (§4.3): every switch monitors every one
// of its links, so a gray failure anywhere is both detected AND localized
// to the exact switch port. This program builds the 11-node Abilene
// research backbone, routes traffic between Seattle and Atlanta over
// shortest paths, injects a gray failure on the Kansas City → Houston
// link for one prefix, and shows that precisely that port flags it while
// every other monitored port on the path stays silent.
//
//	go run ./examples/full_deployment
package main

import (
	"fmt"
	"io"
	"os"

	"fancy"
	"fancy/internal/fancy/tree"
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

	dep, err := n.DeployFancy(fancy.Config{
		HighPriority: []fancy.EntryID{pfxVideo},
		Tree:         tree.Params{Width: 64, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     5,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "deployed FANcY on %d switches, %d links monitored in both directions\n\n",
		len(dep.Detectors), len(spec.Links))

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
			s.Schedule(gap, tick)
		}
		s.Schedule(0, tick)
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

	// Where was it flagged?
	flagged := n.FlaggedAt(dep, pfxVideo)
	fmt.Fprintf(stdout, "prefix %d flagged at: %v\n", pfxVideo, flagged)
	fmt.Fprintf(stdout, "prefix %d flagged at: %v (healthy: must be empty)\n\n", pfxBulk, n.FlaggedAt(dep, pfxBulk))

	for _, de := range dep.Events {
		if de.Event.Kind == fancy.EventDedicated {
			fmt.Fprintf(stdout, "first detection: switch %s at %.2fs (%.0f ms after failure)\n",
				de.Switch, de.Event.Time.Seconds(), (de.Event.Time-3*fancy.Second).Seconds()*1000)
			break
		}
	}
	fmt.Fprintln(stdout, "\nOnly the faulty port's upstream switch raises the flag: the gray")
	fmt.Fprintln(stdout, "failure is localized to (switch port, prefix) — enough to reroute or page.")
	return 0
}
