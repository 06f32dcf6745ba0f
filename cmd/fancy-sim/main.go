// Command fancy-sim runs one ad-hoc gray-failure scenario on the canonical
// monitored link and reports what FANcY detected.
//
// Usage:
//
//	fancy-sim -entries 5 -dedicated 2 -rate 2e6 -loss 0.1 -fail-at 2s -duration 10s
//
// It creates `entries` entries with `rate` bps of UDP traffic each (the
// first `dedicated` of them high priority), injects a gray failure on the
// listed failing entries (default: entry 0) at fail-at, and prints every
// detector event plus the final flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fancy"
	"fancy/cmd/internal/flagcheck"
	"fancy/internal/fancy/tree"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the deterministic transcript on stdout (same
// flags => byte-identical), host wall-clock and errors on stderr, usage
// errors exit 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fancy-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "fancy-sim: "+format+"\n", a...)
		return code
	}
	var (
		entries   = fs.Int("entries", 5, "number of entries with traffic")
		dedicated = fs.Int("dedicated", 2, "entries tracked by dedicated counters")
		rate      = fs.Float64("rate", 2e6, "traffic per entry (bps)")
		loss      = fs.Float64("loss", 1.0, "failure drop probability (0..1)")
		failAt    = fs.Duration("fail-at", 2*time.Second, "failure start time")
		duration  = fs.Duration("duration", 10*time.Second, "simulation length")
		failList  = fs.String("fail", "0", "comma-separated failing entry indices")
		uniform   = fs.Bool("uniform", false, "uniform link loss instead of per-entry")
		delay     = fs.Duration("delay", 10*time.Millisecond, "inter-switch link delay")
		width     = fs.Int("width", 190, "tree width")
		depth     = fs.Int("depth", 3, "tree depth")
		split     = fs.Int("split", 2, "tree split")
		zoom      = fs.Duration("zoom", 200*time.Millisecond, "zooming interval")
		exchange  = fs.Duration("exchange", 50*time.Millisecond, "dedicated exchange interval")
		seed      = fs.Int64("seed", 1, "random seed")
		watch     = fs.Bool("watch", false, "print the monitored port's flagged-slot count and completed sessions every simulated second")

		chaosCorrupt = fs.Float64("chaos-corrupt", 0, "probability of flipping a bit in each control message (both directions)")
		chaosDup     = fs.Float64("chaos-dup", 0, "probability of duplicating each delivered packet")
		chaosReorder = fs.Float64("chaos-reorder", 0, "probability of jittering each packet (≤1ms extra delay)")
		chaosFlapAt  = fs.Duration("chaos-flap-at", 0, "take the link fully down at this time (0: never)")
		chaosFlapFor = fs.Duration("chaos-flap-for", time.Second, "outage length for -chaos-flap-at")
	)
	if code, done := flagcheck.Parse(fs, args, "loss", "chaos-corrupt", "chaos-dup", "chaos-reorder"); done {
		return code
	}
	if !(*rate > 0) {
		return fail(2, "-rate must be > 0, got %v", *rate)
	}
	if *delay <= 0 {
		return fail(2, "-delay must be > 0, got %v", *delay)
	}
	if *chaosFlapAt > 0 && *chaosFlapFor <= 0 {
		return fail(2, "-chaos-flap-for must be > 0 with -chaos-flap-at, got %v", *chaosFlapFor)
	}
	if *dedicated > *entries {
		return fail(2, "-dedicated cannot exceed -entries")
	}
	var failing []fancy.EntryID
	for _, part := range strings.Split(*failList, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || idx < 0 || idx >= *entries {
			return fail(2, "bad failing entry %q", part)
		}
		failing = append(failing, fancy.EntryID(idx))
	}

	hp := make([]fancy.EntryID, *dedicated)
	for i := range hp {
		hp[i] = fancy.EntryID(i)
	}
	cfg := fancy.Config{
		HighPriority:     hp,
		Tree:             tree.Params{Width: *width, Depth: *depth, Split: *split, Pipelined: true},
		TreeSeed:         uint64(*seed),
		ZoomingInterval:  fancy.Time(*zoom),
		ExchangeInterval: fancy.Time(*exchange),
	}

	s := fancy.NewSim(*seed)
	ml, err := fancy.NewMonitoredLinkOpts(s, cfg, fancy.MonitoredLinkOptions{Delay: fancy.Time(*delay)})
	if err != nil {
		return fail(1, "%v", err)
	}
	fmt.Fprintf(stdout, "layout: %s\n", ml.Upstream.Layout)

	if *watch {
		port := ml.MonitorPort()
		every(s, fancy.Second, func() {
			fmt.Fprintf(stdout, "[telemetry %v] /fancy/ports/%d/flags/count = %d\n",
				s.Now(), port, ml.Upstream.Outputs(port).Flags.Count())
		})
		every(s, fancy.Second, func() {
			fmt.Fprintf(stdout, "[telemetry %v] /fancy/ports/%d/sessions/completed = %d\n",
				s.Now(), port, ml.Upstream.SessionsCompleted(port))
		})
	}

	ml.OnEvent(func(ev fancy.Event) { fmt.Fprintln(stdout, ev) })
	stop := fancy.Time(*duration)
	for i := 0; i < *entries; i++ {
		ml.UDP(fancy.EntryID(i), *rate, 0, stop)
	}

	if *uniform {
		ml.FailUniform(fancy.Time(*failAt), *loss)
		fmt.Fprintf(stdout, "injecting uniform %.1f%% loss at %v\n", *loss*100, *failAt)
	} else {
		ml.FailEntries(fancy.Time(*failAt), *loss, failing...)
		fmt.Fprintf(stdout, "injecting %.1f%% loss on entries %v at %v\n", *loss*100, failing, *failAt)
	}

	var chaoses []*fancy.Chaos
	if *chaosCorrupt > 0 || *chaosDup > 0 || *chaosReorder > 0 || *chaosFlapAt > 0 {
		for _, c := range []*fancy.Chaos{ml.ChaosForward(), ml.ChaosReverse()} {
			c.CorruptCtl = *chaosCorrupt
			c.Duplicate = *chaosDup
			c.Reorder = *chaosReorder
			if *chaosFlapAt > 0 {
				c.Start = fancy.Time(*chaosFlapAt)
				c.DownFor = fancy.Time(*chaosFlapFor)
				c.UpFor = stop // single outage
			}
			chaoses = append(chaoses, c)
		}
		fmt.Fprintf(stdout, "chaos: corrupt=%.0f%% dup=%.0f%% reorder=%.0f%% flap=%v/%v\n",
			*chaosCorrupt*100, *chaosDup*100, *chaosReorder*100, *chaosFlapAt, *chaosFlapFor)
	}

	wallStart := time.Now()
	s.Run(stop)
	wall := time.Since(wallStart).Seconds()

	// Stdout is the deterministic transcript (same seed => byte-identical),
	// so host wall-clock timing goes to stderr.
	fmt.Fprintf(stdout, "\nengine: %d events executed\n", s.Executed)
	if pktPool := ml.Src.Pool(); pktPool.Gets > 0 {
		fmt.Fprintf(stdout, "packet pool: %d gets, %.1f%% recycled\n",
			pktPool.Gets, 100*float64(pktPool.Reuses)/float64(pktPool.Gets))
	}
	fmt.Fprintf(stderr, "wall: %.2fs (%.1f Mev/s)\n", wall, float64(s.Executed)/wall/1e6)

	fmt.Fprintln(stdout, "\nfinal flags:")
	for i := 0; i < *entries; i++ {
		e := fancy.EntryID(i)
		kind := "tree"
		if i < *dedicated {
			kind = "dedicated"
		}
		fmt.Fprintf(stdout, "  entry %d (%s): flagged=%v\n", i, kind, ml.Flagged(e))
	}
	fmt.Fprintf(stdout, "\nsessions completed: %d, control messages: %d (%d bytes)\n",
		ml.Upstream.SessionsCompleted(ml.MonitorPort()),
		ml.Upstream.CtlMsgsSent, ml.Upstream.CtlBytesSent)
	st := ml.Upstream.Stats()
	fmt.Fprintf(stdout, "robustness: %d corrupted ctl dropped, %d retransmissions, link down/up %d/%d, %d sessions discarded (congestion)\n",
		st.CtlCorrupted, st.Retransmits, st.LinkDownEvents, st.LinkUpEvents, st.SessionsDiscarded)
	for i, c := range chaoses {
		dir := []string{"forward", "reverse"}[i]
		fmt.Fprintf(stdout, "chaos %s: %+v\n", dir, c.Stats)
	}
	return 0
}

// every runs fn once per interval of simulated time, the first time one
// interval from now.
func every(s *fancy.Sim, interval fancy.Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		s.After(interval, tick)
	}
	s.After(interval, tick)
}
