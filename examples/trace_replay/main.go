// Trace replay: FANcY on a CAIDA-like workload (§5.2 of the paper).
//
// The program synthesizes a scaled-down version of a CAIDA trace (the real
// traces are not redistributable; the synthesizer matches their published
// aggregate statistics and heavy-tailed per-prefix distribution), allocates
// dedicated counters to the historically largest prefixes, replays the
// trace's TCP flows through a monitored link, blackholes a handful of
// prefixes, and reports what FANcY detected and how fast.
//
//	go run ./examples/trace_replay
package main

import (
	"fmt"
	"io"
	"os"

	"fancy"
	"fancy/internal/netsim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(42)

	// A 1/400-scale equinix-chicago trace: ≈15 Mbps over ≈600 prefixes.
	traceCfg := traffic.StandardTraces(400)[0]
	traceCfg.Duration = 20 * fancy.Second
	tr := traffic.Synthesize(traceCfg)
	st := tr.Stats()
	fmt.Fprintf(stdout, "synthesized %s: %.1f Mbps, %.0f flows/s, %d active prefixes\n\n",
		traceCfg.Name, st.BitRateBps/1e6, st.FlowRate, st.ActivePfx)

	// Dedicated counters for the historical top 100 prefixes.
	hp := make([]fancy.EntryID, 100)
	for i := range hp {
		hp[i] = fancy.EntryID(i)
	}
	ml := fancy.NewMonitoredLink(s, fancy.Config{
		HighPriority: hp,
		MemoryBytes:  20_000,
	})

	detectedAt := map[fancy.EntryID]fancy.Time{}

	// Fail four prefixes that actually carry traffic in this slice: the
	// two biggest dedicated ones and the two biggest best-effort ones.
	var failed []fancy.EntryID
	for _, e := range tr.SliceTop(200) {
		_, dedicated := ml.Upstream.DedicatedSlot(e)
		nDed, nTree := 0, 0
		for _, f := range failed {
			if _, d := ml.Upstream.DedicatedSlot(f); d {
				nDed++
			} else {
				nTree++
			}
		}
		if (dedicated && nDed < 2) || (!dedicated && nTree < 2) {
			failed = append(failed, e)
		}
		if len(failed) == 4 {
			break
		}
	}
	ml.OnEvent(func(ev fancy.Event) {
		for _, e := range failed {
			if _, seen := detectedAt[e]; !seen && ml.Upstream.Implicates(ev, e) {
				detectedAt[e] = ev.Time
			}
		}
	})

	// Replay the trace's flows as closed-loop TCP.
	drv := traffic.NewDriver(s, ml.Src, ml.Dst, tcp.Config{})
	drv.Schedule(tr.Specs)

	const failAt = 5 * fancy.Second
	fmt.Fprintf(stdout, "blackholing prefixes %v at t=%v\n\n", failed, failAt)
	ml.Link.AB.SetFailure(netsim.FailEntries(7, failAt, 1.0, failed...))

	s.Run(traceCfg.Duration)

	bytesOf := map[fancy.EntryID]int64{}
	for _, f := range tr.Specs {
		bytesOf[f.Entry] += f.Bytes
	}
	fmt.Fprintln(stdout, "results:")
	for _, e := range failed {
		kind := "hash-tree"
		if _, ok := ml.Upstream.DedicatedSlot(e); ok {
			kind = "dedicated"
		}
		if at, ok := detectedAt[e]; ok {
			fmt.Fprintf(stdout, "  prefix %-4d (%-9s, %6.1f KB in slice): detected %.2fs after failure\n",
				e, kind, float64(bytesOf[e])/1024, (at - failAt).Seconds())
		} else {
			fmt.Fprintf(stdout, "  prefix %-4d (%-9s, %6.1f KB in slice): NOT detected "+
				"(too little traffic for drops in %d consecutive sessions)\n",
				e, kind, float64(bytesOf[e])/1024, 3)
		}
	}
	fmt.Fprintf(stdout, "\nflows replayed: %d (completed: %d)\n", drv.Started(), drv.Completed())
	return 0
}
