// Quickstart: detect a gray failure on a single monitored link.
//
// A dedicated (high-priority) entry and a best-effort entry carry traffic
// across the link; at t=2s a hardware bug starts dropping 10% of both
// entries' packets. FANcY flags the dedicated entry after one counter
// exchange (≈100 ms) and the best-effort entry after the hash-based tree
// zooms to a leaf (≈3 zooming intervals).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"fancy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(1)

	ml := fancy.NewMonitoredLink(s, fancy.Config{
		HighPriority: []fancy.EntryID{10}, // e.g. the prefix of a big customer
		MemoryBytes:  20_000,              // 20 KB per port, the paper's budget
	})
	fmt.Fprintf(stdout, "memory layout: %s\n\n", ml.Upstream.Layout)

	ml.OnEvent(func(ev fancy.Event) {
		switch ev.Kind {
		case fancy.EventDedicated:
			fmt.Fprintf(stdout, "%8.3fs  dedicated counter flagged entry %d (lost %d packets)\n",
				ev.Time.Seconds(), ev.Entry, ev.Diff)
		case fancy.EventTreeZoomStart:
			fmt.Fprintf(stdout, "%8.3fs  tree observed a root mismatch, zooming in...\n", ev.Time.Seconds())
		case fancy.EventTreeLeaf:
			fmt.Fprintf(stdout, "%8.3fs  tree flagged hash path %v (lost %d packets)\n",
				ev.Time.Seconds(), ev.Path, ev.Diff)
		}
	})

	// 2 Mbps of UDP per entry for 10 seconds.
	ml.UDP(10, 2e6, 0, 10*fancy.Second)  // high priority
	ml.UDP(500, 2e6, 0, 10*fancy.Second) // best effort

	// The gray failure: 10% of both entries' packets silently dropped.
	ml.FailEntries(2*fancy.Second, 0.10, 10, 500)

	s.Run(10 * fancy.Second)

	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "entry  10 flagged: %v (dedicated counter)\n", ml.Flagged(10))
	fmt.Fprintf(stdout, "entry 500 flagged: %v (hash-based tree)\n", ml.Flagged(500))
	fmt.Fprintf(stdout, "entry 600 flagged: %v (healthy, never sent)\n", ml.Flagged(600))
	fmt.Fprintf(stdout, "\ncontrol overhead: %d messages, %d bytes in 10s\n",
		ml.Upstream.CtlMsgsSent, ml.Upstream.CtlBytesSent)
	return 0
}
