// Package exp contains one driver per table and figure of the paper's
// evaluation (§2.3, §5, §6, Appendix D). Each driver builds the scenario,
// runs it at the requested scale and returns a result that renders the same
// rows/series the paper reports. cmd/fancy-bench exposes them on the
// command line and pins their quick-scale output in its goldens.
package exp

import (
	"fmt"
	"math/rand"

	"fancy/internal/fancy"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// Scale selects experiment fidelity. Quick subsamples grids, shortens runs
// and lowers repetition counts so the whole suite finishes in CI time; Full
// reproduces the paper-scale parameters. EXPERIMENTS.md records both.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// pick returns q at Quick scale and f at Full scale.
func pick[T any](s Scale, q, f T) T {
	if s == Full {
		return f
	}
	return q
}

// EntryLoad describes the traffic offered to one entry: the synthetic-grid
// axis of Figures 7–9 ("Entry Size: total throughput and flows/s").
type EntryLoad struct {
	Entry       netsim.EntryID
	RateBps     float64
	FlowsPerSec float64
}

// GridRow labels one row of the Figure 7/9 grids.
type GridRow struct {
	Label       string
	RateBps     float64
	FlowsPerSec float64
}

// PaperGrid is the 18-row entry-size axis of Figure 7.
var PaperGrid = []GridRow{
	{"500Mbps/250", 500e6, 250}, {"100Mbps/200", 100e6, 200},
	{"50Mbps/150", 50e6, 150}, {"10Mbps/150", 10e6, 150},
	{"10Mbps/100", 10e6, 100}, {"1Mbps/100", 1e6, 100},
	{"1Mbps/50", 1e6, 50}, {"500Kbps/50", 500e3, 50},
	{"500Kbps/25", 500e3, 25}, {"100Kbps/25", 100e3, 25},
	{"100Kbps/10", 100e3, 10}, {"50Kbps/10", 50e3, 10},
	{"50Kbps/5", 50e3, 5}, {"25Kbps/5", 25e3, 5},
	{"25Kbps/2", 25e3, 2}, {"8Kbps/2", 8e3, 2},
	{"8Kbps/1", 8e3, 1}, {"4Kbps/1", 4e3, 1},
}

// QuickGrid is the subsampled axis used at Quick scale.
var QuickGrid = []GridRow{
	{"10Mbps/100", 10e6, 100}, {"1Mbps/50", 1e6, 50},
	{"500Kbps/25", 500e3, 25}, {"100Kbps/10", 100e3, 10},
	{"25Kbps/5", 25e3, 5}, {"8Kbps/1", 8e3, 1},
}

// PaperLossRates is the loss-rate axis of Figures 7–9 (fractions).
var PaperLossRates = []float64{1.0, 0.75, 0.50, 0.10, 0.01, 0.001}

// QuickLossRates subsamples the axis at Quick scale.
var QuickLossRates = []float64{1.0, 0.50, 0.10, 0.01}

// LossLabel formats a loss fraction like the paper's column headers.
func LossLabel(l float64) string {
	if l >= 1 {
		return "100%"
	}
	return fmt.Sprintf("%g%%", l*100)
}

// Scenario is one measurement run on the canonical two-switch link:
//
//	src — up ——(monitored link, failure injected)—— down — dst
type Scenario struct {
	Seed     int64
	Cfg      fancy.Config
	Delay    sim.Time // inter-switch delay (paper: 10 ms)
	Duration sim.Time // total simulated time
	FailAt   sim.Time
	LossRate float64
	Failed   []netsim.EntryID // each loses LossRate of its packets from FailAt
	Loads    []EntryLoad

	// StopWhenDetected ends the run as soon as every failed entry is
	// detected, shortening the common case enormously.
	StopWhenDetected bool

	// UDP switches the workload to constant-bit-rate UDP instead of
	// closed-loop TCP flows.
	UDP bool

	// InstallTraffic, when set, replaces the Loads-driven workload with a
	// custom one (e.g. a synthesized trace replay).
	InstallTraffic func(s *sim.Sim, src, dst *netsim.Host)

	// ReverseLoss installs uniform loss on the downstream→upstream
	// direction of the monitored link, hitting StartACK/Report messages.
	ReverseLoss float64
}

// Outcome is what a scenario run produced.
type Outcome struct {
	// PerEntry holds the detection result for every failed entry.
	PerEntry map[netsim.EntryID]stats.Detection
	// UniformDetected reports an EventUniform and its latency.
	UniformDetected bool
	UniformLatency  sim.Time
	// Events is the raw event log.
	Events []fancy.Event
	// CtlBytes is the detector's control-message overhead.
	CtlBytes uint64
	// FalseEntries counts non-failed entries with traffic that ended up
	// flagged (hash collisions).
	FalseEntries int
}

// Run executes the scenario.
func (sc *Scenario) Run() *Outcome {
	s := sim.New(sc.Seed)
	edge := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 24}
	core := netsim.LinkConfig{Delay: sc.Delay, RateBps: 100e9, QueueBytes: 1 << 24}
	bed := netsim.NewLinkBed(s, edge, core, false)
	pair, err := fancy.DeployLink(bed, sc.Cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: detector config invalid: %v", err))
	}
	det := pair.Upstream

	out := &Outcome{PerEntry: make(map[netsim.EntryID]stats.Detection)}
	failedSet := make(map[netsim.EntryID]bool, len(sc.Failed))
	for _, e := range sc.Failed {
		failedSet[e] = true
	}
	detected := 0
	markDetected := func(e netsim.EntryID) {
		if d := out.PerEntry[e]; d.Detected {
			return
		}
		out.PerEntry[e] = stats.Detection{Detected: true, Latency: s.Now() - sc.FailAt}
		detected++
		if sc.StopWhenDetected && detected == len(sc.Failed) {
			s.Stop()
		}
	}
	det.OnEvent = func(ev fancy.Event) {
		out.Events = append(out.Events, ev)
		if s.Now() < sc.FailAt {
			return // spurious pre-failure event (should not happen)
		}
		if ev.Kind == fancy.EventUniform && !out.UniformDetected {
			out.UniformDetected = true
			out.UniformLatency = s.Now() - sc.FailAt
		}
		for _, e := range sc.Failed {
			if det.Implicates(ev, e) {
				markDetected(e)
			}
		}
	}

	// Traffic.
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	if sc.InstallTraffic != nil {
		sc.InstallTraffic(s, bed.Src, bed.Dst)
	} else if sc.UDP {
		for _, l := range sc.Loads {
			traffic.NewUDPSource(s, bed.Src, netsim.FlowID(l.Entry), l.Entry,
				netsim.EntryAddr(l.Entry, 1), l.RateBps, 1000, sc.Duration).Start()
		}
	} else {
		drv := traffic.NewDriver(s, bed.Src, bed.Dst, tcp.Config{})
		var specs []traffic.FlowSpec
		for _, l := range sc.Loads {
			specs = append(specs, traffic.SteadyEntry(l.Entry, l.RateBps, l.FlowsPerSec, sc.Duration, rng)...)
		}
		drv.Schedule(specs)
	}

	// Failure.
	bed.Link.AB.SetFailure(netsim.FailEntries(sc.Seed+2, sc.FailAt, sc.LossRate, sc.Failed...))
	if sc.ReverseLoss > 0 {
		bed.Link.BA.SetFailure(netsim.FailUniform(sc.Seed+3, 0, sc.ReverseLoss))
	}

	s.Run(sc.Duration)

	for _, e := range sc.Failed {
		if _, ok := out.PerEntry[e]; !ok {
			out.PerEntry[e] = stats.Detection{}
		}
	}
	// False positives: entries with traffic that were flagged but healthy.
	for _, l := range sc.Loads {
		if !failedSet[l.Entry] && det.Flagged(1, l.Entry) {
			out.FalseEntries++
		}
	}
	out.CtlBytes = det.CtlBytesSent
	return out
}

// tcpCfg is the default TCP configuration used by experiment workloads.
func tcpCfg() tcp.Config { return tcp.Config{} }

// simRand builds a deterministic RNG for workload generation.
func simRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
