package exp

// Figure 10 (§6.1): the fast-rerouting case study. A FANcY switch forwards
// traffic over a primary link whose far-end "link switch" starts dropping
// 1%, 10% or 100% of the packets; FANcY detects the mismatch and the
// reroute application diverts only the affected entries to a backup link.
// The figure plots delivered throughput over time — the dip at the failure
// and the sub-second recovery.

import (
	"fmt"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/reroute"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// Fig10Series is one experiment's delivered-throughput time series.
type Fig10Series struct {
	Label      string
	LossRate   float64
	BinSecs    float64
	Mbps       []float64
	ReroutedAt sim.Time // 0 if never rerouted
	FailAt     sim.Time
}

// Fig10Result groups the series of the case study.
type Fig10Result struct {
	Series []Fig10Series
}

// Render prints each series as a row of per-bin throughputs.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("== Figure 10: selective fast rerouting on a Tofino-like switch ==\n")
	for _, s := range r.Series {
		reroute := "never"
		if s.ReroutedAt > 0 {
			reroute = fmt.Sprintf("+%.0fms", (s.ReroutedAt-s.FailAt).Seconds()*1000)
		}
		fmt.Fprintf(&b, "%-24s fail@%.1fs reroute %s\n  Mbps/bin:", s.Label, s.FailAt.Seconds(), reroute)
		for _, m := range s.Mbps {
			fmt.Fprintf(&b, " %5.1f", m)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure10 runs the case study for dedicated and hash-tree entries at the
// three loss rates. The testbed ran 50 Gbps; the simulation runs a scaled
// rate, which preserves the plot's shape (throughput dip and recovery).
func Figure10(scale Scale, seed int64) *Fig10Result {
	losses := []float64{1.0, 0.10, 0.01}
	return &Fig10Result{Series: trials(2*len(losses), func(i int) Fig10Series {
		return runFig10(scale, seed, i < len(losses), losses[i%len(losses)])
	})}
}

func runFig10(scale Scale, seed int64, dedicated bool, loss float64) Fig10Series {
	s := sim.New(seed)
	lc := netsim.LinkConfig{Delay: 2 * sim.Millisecond, RateBps: 10e9, QueueBytes: 1 << 24}
	bed := netsim.NewLinkBed(s, lc, lc, true) // backup link via the link switch

	const entry = netsim.EntryID(10)
	hp := []netsim.EntryID{10}
	if !dedicated {
		hp = []netsim.EntryID{1} // monitored entry goes through the tree
	}
	cfg := fancy.Config{
		HighPriority: hp,
		Tree:         tree.Params{Width: 190, Depth: 3, Split: 1, Pipelined: false}, // Tofino layout
		TreeSeed:     19,
		// §6: 200 ms counting sessions so the failure impact is visible.
		ExchangeInterval: 200 * sim.Millisecond,
		ZoomingInterval:  200 * sim.Millisecond,
	}
	pair, err := fancy.DeployLink(bed, cfg)
	if err != nil {
		panic(err)
	}
	det := pair.Upstream

	app := reroute.New(s, det, 1)
	det.OnEvent = func(ev fancy.Event) { app.HandleEvent(ev) }
	route := bed.Up.Routes.InsertEntry(entry, netsim.Route{Port: 1, Backup: 2})
	app.Protect(entry, route)

	duration := pick(scale, 6*sim.Second, 10*sim.Second)
	const failAt = 2 * sim.Second
	const binSecs = 0.1
	bins := make([]float64, int(duration.Seconds()/binSecs))
	// Tap delivered bytes at the downstream switch's forwarding step so
	// both the TCP flows (bound to per-flow handlers) and UDP count.
	bed.Down.OnForwarded(func(p *netsim.Packet, in, out int) {
		if out != 1 {
			return
		}
		bin := int(s.Now().Seconds() / binSecs)
		if bin < len(bins) {
			bins[bin] += float64(p.Size) * 8
		}
	})

	// Workload: TCP flows plus a UDP stream, as in the testbed.
	rateBps := pick(scale, 50e6, 500e6)
	drv := traffic.NewDriver(s, bed.Src, bed.Dst, tcp.Config{})
	rng := simRand(seed)
	drv.Schedule(traffic.SteadyEntry(entry, rateBps, 50, duration, rng))
	traffic.NewUDPSource(s, bed.Src, 9999, entry, netsim.EntryAddr(entry, 2),
		rateBps/100, 1000, duration).Start()

	bed.Link.AB.SetFailure(netsim.FailEntries(seed+3, failAt, loss, entry))
	s.Run(duration)

	series := Fig10Series{
		LossRate: loss, BinSecs: binSecs, FailAt: failAt,
		ReroutedAt: app.ReroutedAt[entry],
	}
	kind := "hash-based"
	if dedicated {
		kind = "dedicated"
	}
	series.Label = fmt.Sprintf("%s loss=%s", kind, LossLabel(loss))
	for _, b := range bins {
		series.Mbps = append(series.Mbps, b/binSecs/1e6)
	}
	return series
}
