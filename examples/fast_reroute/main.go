// Fast reroute: the paper's §6.1 case study at simulation scale.
//
// A FANcY switch forwards a customer's traffic over a primary link. At
// t=2s the link starts dropping 10% of that entry's packets (a gray
// failure: BFD sees nothing, the link stays "up"). FANcY detects the
// counter mismatch within one counting session and the rerouting
// application flips the entry to a backup next hop — sub-second, and only
// for the affected entry; a second, healthy entry stays on the primary.
//
// The program prints delivered throughput in 100 ms bins so the dip and
// recovery are visible, like Figure 10.
//
//	go run ./examples/fast_reroute
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"fancy"
	"fancy/internal/netsim"
	"fancy/internal/reroute"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(3)

	// sender — FANcY switch ═(primary + backup)═ link switch — receiver
	lc := netsim.LinkConfig{Delay: 2 * fancy.Millisecond, RateBps: 10e9}
	bed := netsim.NewLinkBed(s, lc, lc, true)

	const victim = fancy.EntryID(10)
	const healthy = fancy.EntryID(20)
	cfg := fancy.Config{
		HighPriority:     []fancy.EntryID{victim, healthy},
		MemoryBytes:      20_000,
		ExchangeInterval: 200 * fancy.Millisecond, // §6's session duration
	}
	pair, err := fancy.DeployLink(bed, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	det := pair.Upstream

	app := reroute.New(s, det, 1)
	det.OnEvent = app.HandleEvent
	app.OnReroute = func(e fancy.EntryID, at fancy.Time) {
		fmt.Fprintf(stdout, "%.3fs  REROUTED entry %d to the backup link\n", at.Seconds(), e)
	}
	for _, e := range []fancy.EntryID{victim, healthy} {
		app.Protect(e, bed.Up.Routes.InsertEntry(e, fancy.Route{Port: 1, Backup: 2}))
	}

	// 20 Mbps of TCP plus a small UDP stream per entry.
	const duration = 8 * fancy.Second
	drv := traffic.NewDriver(s, bed.Src, bed.Dst, tcp.Config{})
	rng := s.Rand()
	drv.Schedule(traffic.SteadyEntry(victim, 20e6, 30, duration, rng))
	drv.Schedule(traffic.SteadyEntry(healthy, 20e6, 30, duration, rng))
	traffic.NewUDPSource(s, bed.Src, 9001, victim, netsim.EntryAddr(victim, 2), 1e6, 1000, duration).Start()

	// Throughput accounting in 100 ms bins, tapped at the downstream
	// switch's forwarding step so both TCP and UDP deliveries count.
	const bin = 100 * fancy.Millisecond
	bins := map[fancy.EntryID][]float64{victim: make([]float64, duration/bin), healthy: make([]float64, duration/bin)}
	bed.Down.OnForwarded(func(p *fancy.Packet, in, out int) {
		if out != 1 { // only packets toward the receiver
			return
		}
		if b, ok := bins[p.Entry]; ok {
			i := int(s.Now() / bin)
			if i < len(b) {
				b[i] += float64(p.Size) * 8
			}
		}
	})

	const failAt = 2 * fancy.Second
	fmt.Fprintf(stdout, "injecting 10%% gray loss for entry %d on the primary link at t=%v\n\n", victim, failAt)
	bed.Link.AB.SetFailure(netsim.FailEntries(5, failAt, 0.10, victim))

	s.Run(duration)

	fmt.Fprintln(stdout, "\ndelivered throughput (Mbps per 100 ms bin):")
	for _, e := range []fancy.EntryID{victim, healthy} {
		fmt.Fprintf(stdout, "entry %d: ", e)
		var cells []string
		for _, v := range bins[e] {
			cells = append(cells, fmt.Sprintf("%.0f", v/bin.Seconds()/1e6))
		}
		fmt.Fprintln(stdout, strings.Join(cells, " "))
	}
	fmt.Fprintf(stdout, "\nvictim rerouted: %v   healthy rerouted: %v (must stay false)\n",
		app.Rerouted(victim), app.Rerouted(healthy))
	return 0
}
