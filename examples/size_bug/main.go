// Size-specific gray failure: localizing a Table 1 bug class with a
// custom counting session.
//
// Cisco bug CSCtc33158 ("drops random sized L2TPv3 packets") is the kind
// of failure per-prefix counters can detect but not explain: every prefix
// loses a little, and nothing points at packet size. FANcY's counting
// protocol is extensible (§4.1): this program attaches a custom session
// that synchronizes per-packet-size bucket counters across the link, so
// the mismatch report names the failing size range directly.
//
//	go run ./examples/size_bug
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"fancy"
	core "fancy/internal/fancy"
	"fancy/internal/netsim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(_ []string, stdout, stderr io.Writer) int {
	s := fancy.NewSim(9)
	ml := fancy.NewMonitoredLink(s, fancy.Config{
		HighPriority: []fancy.EntryID{10},
		MemoryBytes:  20_000,
	})

	// The custom unit rides the same stop-and-wait FSMs as the regular
	// counters: sender side upstream, receiver side downstream.
	sender := core.NewSizeHistogramUnit()
	receiver := core.NewSizeHistogramUnit()
	ml.Upstream.MonitorCustom(ml.MonitorPort(), 100*fancy.Millisecond, sender)
	ml.Downstream.ListenCustom(0, receiver)

	sender.OnMismatch = func(bucket int, diff uint64) {
		fmt.Fprintf(stdout, "%8.3fs  size bucket %-10s lost %d packets\n",
			s.Now().Seconds(), core.BucketRange(bucket), diff)
	}

	// A traffic mix of distinct packet sizes on several prefixes.
	sizes := []int{128, 512, 832, 1400}
	for i, size := range sizes {
		entry := fancy.EntryID(50 + i)
		sz := size
		var tick func()
		tick = func() {
			if s.Now() >= 8*fancy.Second {
				return
			}
			ml.Src.Send(&fancy.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Proto: netsim.ProtoUDP, Size: sz})
			s.After(3*fancy.Millisecond, tick)
		}
		s.After(fancy.Time(i)*fancy.Millisecond, tick)
	}

	// The bug: packets of 800–900 bytes silently dropped from t=2s.
	fmt.Fprintln(stdout, "injecting a size-specific bug (drops 800-900B packets) at t=2s")
	fmt.Fprintln(stdout)
	ml.Link.AB.SetFailure(netsim.FailSizes(3, 2*fancy.Second, 800, 900, 1.0))

	s.Run(8 * fancy.Second)

	fmt.Fprintln(stdout, "\nflagged size buckets:")
	buckets := make([]int, 0, len(sender.FlaggedBuckets))
	for b := range sender.FlaggedBuckets {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		fmt.Fprintf(stdout, "  %s\n", core.BucketRange(b))
	}
	fmt.Fprintln(stdout, "\nThe report points an operator straight at the failing size range —")
	fmt.Fprintln(stdout, "root-cause context no per-prefix counter can provide (§4.1, Table 1).")
	return 0
}
