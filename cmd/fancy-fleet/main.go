// Command fancy-fleet runs an ISP-wide FANcY deployment on the Abilene
// topology: a detector pair on every directed link, the central correlator
// of internal/fleet, one injected gray link, and a protected entry that is
// fast-rerouted once the link is localized.
//
// Usage:
//
//	fancy-fleet                              # defaults: seattle->sunnyvale
//	fancy-fleet -link chicago->newyork -loss 0.5 -duration 10s
//	fancy-fleet -events                      # include the full event log
//	fancy-fleet -mgmt-loss 0.2 -crash-correlator 2.1s   # survivability drill
//	fancy-fleet -mgmt-loss 0.1 -partition seattle       # degraded-mode drill
//	fancy-fleet -mgmt-loss 0.2 -replicas 3 -kill-leader 2.1s   # failover drill
//	fancy-fleet -hh                          # dynamic dedicated-counter allocation
//	fancy-fleet -verify                      # verified-commit gate on every reroute
//	fancy-fleet -inject-loop                 # concurrent failures whose backups compose into a loop
//	fancy-fleet -inject-loop -verify         # ...which the gate rejects and repairs
//
// The run is deterministic for a given flag set; the fleet report at the
// end is the aggregate snapshot (per-link health, localization times,
// suppressed false alarms, detector robustness counters).
//
// The -mgmt-* flags interpose the simulated management network of
// internal/mgmt between every switch agent and the correlator;
// -crash-correlator and -partition then exercise the survivability story
// (checkpoint/restart recovery, degraded-mode local protection).
// -replicas runs the correlator as a consensus group over that same
// management plane; -kill-leader assassinates the active leader mid-run and
// recovery is a phi-driven election plus replicated-log restore.
//
// -hh swaps the static dedicated pin for the in-dataplane heavy-hitter
// stage: a churning background workload shares the path, every detector
// sketches its egress traffic, and the per-switch allocation loop promotes
// the observed heavy hitters (the target entry among them) into dedicated
// counters at runtime. The closing report gains the hh-alloc line.
//
// -verify puts the verified-commit gate in front of every fleet-wide
// reroute: the correlator checks each backup flip against an incremental
// atom model and rejects, repairs or holds unsafe ones. -inject-loop swaps
// the scenario for the concurrent-failure composition (traffic
// washington→kansascity, atlanta and houston protected with backups
// through each other, both their primary egress links failed): without
// -verify the demo installs the atlanta↔houston loop, with it the gate
// rejects houston's flip and repairs via losangeles. Either way the run
// closes with a forwarding-state audit over every atom.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fancy/cmd/internal/flagcheck"
	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/traffic"
	"fancy/internal/verify"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the scenario transcript on stdout (byte-
// deterministic for a flag set), usage errors on stderr with exit status 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fancy-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fancy-fleet: "+format+"\n", a...)
		return 2
	}
	var (
		link     = fs.String("link", "seattle->sunnyvale", "directed link to fail (from->to)")
		loss     = fs.Float64("loss", 1.0, "per-entry drop probability on the failed link (0..1)")
		rate     = fs.Float64("rate", 2e6, "target-entry traffic (bps)")
		failAt   = fs.Duration("fail-at", 2*time.Second, "failure start time")
		duration = fs.Duration("duration", 8*time.Second, "simulation length")
		seed     = fs.Int64("seed", 42, "random seed")
		events   = fs.Bool("events", false, "print the full fleet event log")

		mgmtLoss   = fs.Float64("mgmt-loss", 0, "management-network datagram loss probability (0..1); any -mgmt-* flag enables the simulated management plane")
		mgmtDelay  = fs.Duration("mgmt-delay", 0, "management-network one-way delay (0 = default 500µs)")
		mgmtJitter = fs.Duration("mgmt-jitter", 0, "management-network delay jitter bound")
		mgmtDup    = fs.Float64("mgmt-dup", 0, "management-network duplication probability (0..1)")

		crashCorr = fs.Duration("crash-correlator", 0, "crash the correlator at this time (0 = never)")
		crashDown = fs.Duration("crash-downtime", 300*time.Millisecond, "correlator downtime before restart")
		partition = fs.String("partition", "", "switch to partition from the management plane mid-run (failure start → heal at fail start + half the remaining run)")

		replicas   = fs.Int("replicas", 0, "correlator replicas (0/1 = single instance, 3+ = consensus group; needs the management plane)")
		killLeader = fs.Duration("kill-leader", 0, "crash the active consensus leader at this time (0 = never; needs -replicas)")

		hhMode  = fs.Bool("hh", false, "dynamic dedicated-counter allocation: heavy-hitter stage + churning background workload instead of a static pin")
		hhSlots = fs.Int("hh-slots", 8, "dedicated-counter slots per port available to the allocation loop (needs -hh)")

		verifyGate = fs.Bool("verify", false, "verified-commit gate: check every reroute against the atom-based forwarding model before committing")
		injectLoop = fs.Bool("inject-loop", false, "concurrent-failure demo: backups that compose into a forwarding loop (overrides -link; pair with -verify to see the gate reject and repair it)")
	)
	if code, done := flagcheck.Parse(fs, args, "loss", "mgmt-loss", "mgmt-dup"); done {
		return code
	}
	if !(*rate > 0) {
		return fail("-rate must be > 0, got %v", *rate)
	}
	if *hhMode && *hhSlots < 1 {
		return fail("-hh-slots must be >= 1 with -hh, got %d", *hhSlots)
	}

	srcAt, dstAt := "", ""
	if *injectLoop {
		// The composed scenario: traffic washington→kansascity rides
		// atlanta→indianapolis; atlanta's backup detours via houston,
		// houston's via atlanta, and both primary egress links fail.
		*link = "atlanta->indianapolis"
		srcAt, dstAt = "washington", "kansascity"
	}
	from, to, ok := strings.Cut(*link, "->")
	if !ok {
		return fail("-link must look like from->to, got %q", *link)
	}
	if srcAt == "" {
		srcAt, dstAt = from, to
	}

	if *killLeader > 0 && *replicas <= 1 {
		return fail("-kill-leader needs -replicas > 1")
	}

	const entry = netsim.EntryID(10)
	dur := sim.Time(*duration)
	trial := fleet.Trial{
		Seed: *seed, Duration: dur,
		Spec:   topo.Abilene(),
		Routes: map[netsim.EntryID]string{entry: "hdst"},
		Config: fleet.Config{Fancy: fancy.Config{
			HighPriority: []netsim.EntryID{entry},
			Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
			TreeSeed:     3,
		}},
		Flows: []fleet.Flow{{From: "hsrc", Entry: entry, RateBps: *rate}},
	}
	trial.Spec.Hosts = []topo.HostSpec{
		{Name: "hsrc", Attach: srcAt},
		{Name: "hdst", Attach: dstAt},
	}
	var churn *traffic.ChurnSchedule
	if *hhMode {
		// The background entry set includes the target entry; its dedicated
		// source keeps it in the head, so the allocation loop promotes it.
		churn = traffic.NewChurnSchedule(traffic.ChurnConfig{
			Entries:       32,
			AggregateBps:  10e6,
			ShiftInterval: dur / 2,
			Epochs:        2,
			HotRanks:      *hhSlots,
			Seed:          *seed,
		})
		for i := 0; i < churn.Config().Entries; i++ {
			trial.Routes[netsim.EntryID(i)] = "hdst"
		}
		trial.Config.Fancy.HighPriority = nil // dedicated counters come from the allocation loop
		trial.Config.HH = &fleet.HHFleetConfig{
			Sketch:       hh.Params{Stages: 3, Width: 32, Seed: uint64(*seed)},
			DynamicSlots: *hhSlots,
		}
	}
	mgmtWanted := *mgmtLoss > 0 || *mgmtDelay > 0 || *mgmtJitter > 0 || *mgmtDup > 0 ||
		*crashCorr > 0 || *partition != "" || *replicas > 1
	if mgmtWanted {
		trial.Config.Mgmt = &mgmt.Config{
			Loss:      *mgmtLoss,
			Delay:     sim.Time(*mgmtDelay),
			Jitter:    sim.Time(*mgmtJitter),
			Duplicate: *mgmtDup,
		}
		trial.Config.Replicas = *replicas
	}
	if *verifyGate {
		trial.Config.Verify = &fleet.VerifyConfig{}
	}

	// Protect the target entry at the failed link's upstream switch, if a
	// provably loop-free detour exists (an empty BackupTo asks for it).
	trial.Protect = []fleet.Protection{{Switch: from, Entry: entry, PrimaryTo: to}}
	gray := func(from, to string) fleet.Fault {
		return fleet.Fault{At: sim.Time(*failAt), Kind: fleet.FaultGrayLink,
			Link: topo.DirectedLink{From: from, To: to}, Entries: []netsim.EntryID{entry}, Loss: *loss}
	}
	trial.Faults = []fleet.Fault{gray(from, to)}
	if *injectLoop {
		trial.Protect = []fleet.Protection{
			{Switch: "atlanta", Entry: entry, PrimaryTo: "indianapolis", BackupTo: "houston"},
			{Switch: "houston", Entry: entry, PrimaryTo: "kansascity", BackupTo: "atlanta"},
		}
		trial.Faults = append(trial.Faults, gray("houston", "kansascity"))
	}
	// -crash-correlator and -kill-leader are one fault pair under two names:
	// the correlator is always a replica group, of one by default.
	for _, at := range []time.Duration{*crashCorr, *killLeader} {
		if at > 0 {
			trial.Faults = append(trial.Faults,
				fleet.Fault{At: sim.Time(at), Kind: fleet.FaultKillLeader},
				fleet.Fault{At: sim.Time(at + *crashDown), Kind: fleet.FaultRestartKilled})
		}
	}
	cut := sim.Time(*failAt)
	heal := cut + (dur-cut)/2
	if *partition != "" {
		trial.Faults = append(trial.Faults,
			fleet.Fault{At: cut, Kind: fleet.FaultPartition, Switch: *partition},
			fleet.Fault{At: heal, Kind: fleet.FaultHeal, Switch: *partition})
	}

	r, err := trial.Start()
	if err != nil {
		return fail("%v", err)
	}
	n, f := r.Net, r.Fleet
	f.OnEvent = func(ev fleet.Event) {
		if *events {
			fmt.Fprintln(stdout, ev)
			return
		}
		// Headline events only.
		switch ev.Kind {
		case fleet.EventLocalized, fleet.EventSuppressed, fleet.EventRerouted,
			fleet.EventLinkFlapping, fleet.EventRerouteRejected,
			fleet.EventRerouteRepaired, fleet.EventRerouteHeld,
			fleet.EventVerifyFallback:
			fmt.Fprintln(stdout, ev)
		}
	}

	for _, p := range r.Protected {
		fmt.Fprintf(stdout, "protecting entry %d at %s: primary via %s, backup via %s\n",
			p.Entry, p.Switch, p.PrimaryTo, p.BackupTo)
	}
	if len(r.Protected) == 0 {
		fmt.Fprintf(stdout, "no loop-free detour from %s avoiding %s: running detection only\n", from, to)
	}
	if churn != nil {
		srcs := churn.Launch(r.Sim, n.Hosts["hsrc"])
		fmt.Fprintf(stdout, "heavy-hitter stage: %d dynamic slots/port, churn background: %d entries, %d sources, %d epochs\n",
			*hhSlots, churn.Config().Entries, srcs, churn.Epochs())
	}
	if *injectLoop {
		fmt.Fprintf(stdout, "also failing houston->kansascity at %v: both backups now compose into a loop\n",
			*failAt)
	}
	if *verifyGate {
		fmt.Fprintln(stdout, "verified-commit gate: every reroute checked against the atom model before committing")
	}
	if *crashCorr > 0 {
		fmt.Fprintf(stdout, "correlator crash at %v, restart at %v\n", *crashCorr, *crashCorr+*crashDown)
	}
	if *killLeader > 0 {
		fmt.Fprintf(stdout, "leader kill at %v, dead replica rejoins at %v\n", *killLeader, *killLeader+*crashDown)
	}
	if *partition != "" {
		fmt.Fprintf(stdout, "partitioning %s off the management plane at %v, healing at %v\n", *partition, cut, heal)
	}
	if mgmtWanted {
		fmt.Fprintf(stdout, "management plane: loss=%.0f%% dup=%.0f%% delay=%v jitter=%v\n",
			*mgmtLoss*100, *mgmtDup*100, *mgmtDelay, *mgmtJitter)
	}
	if *replicas > 1 {
		fmt.Fprintf(stdout, "correlator: %d-replica consensus group, leader %s\n", *replicas, f.Leader())
	}

	fmt.Fprintf(stdout, "failing %s at %v (loss %.0f%%), %d switches / %d directed links monitored\n\n",
		*link, *failAt, *loss*100, len(n.Switches), len(n.DirectedLinks()))
	r.Finish()

	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, f.Snapshot().Report())

	// Close with a forwarding-state audit: the gate's own model when
	// verifying, else a fresh snapshot of the final installed routes — the
	// latter is what exposes the loop the unverified -inject-loop run left
	// behind.
	audit := f.Verifier().Audit
	if !*verifyGate {
		audit = verify.NewModel(n).Audit
	}
	fmt.Fprintf(stdout, "\npost-run forwarding audit: %s\n", audit())
	return 0
}
