// Package fancy is a Go implementation of FANcY — "FAst In-Network GraY
// Failure Detection for ISPs" (Costa Molero, Vissicchio, Vanbever;
// SIGCOMM 2022) — together with the packet-level simulation substrate,
// baselines and benchmark harness needed to reproduce the paper's
// evaluation.
//
// FANcY detects and localizes gray failures: hardware malfunctions that
// silently drop a subset of the packets crossing a link, invisible to
// hello protocols such as BFD and too fine-grained for sampled monitoring
// such as NetFlow. Pairs of switches run a stop-and-wait counting protocol:
// the upstream tags the packets of each monitored entry with a counter ID,
// both sides count the same packets with the same counters, and the
// downstream reports its counters at the end of every counting session.
// High-priority entries get dedicated counters; everything else is covered
// by a hash-based tree explored at runtime by a zooming algorithm.
//
// # Quick start
//
//	s := fancy.NewSim(1)
//	ml := fancy.NewMonitoredLink(s, fancy.Config{
//		HighPriority: []fancy.EntryID{10},
//		MemoryBytes:  20_000, // 20 KB per port, as in the paper
//	})
//	ml.OnEvent(func(ev fancy.Event) { fmt.Println(ev) })
//	ml.UDP(10, 2e6, 0, 10*fancy.Second)                  // 2 Mbps for entry 10
//	ml.FailEntries(2*fancy.Second, 1.0, 10)              // blackhole at t=2s
//	s.Run(10 * fancy.Second)
//	fmt.Println(ml.Flagged(10))                          // true
//
// The examples directory contains runnable programs; cmd/fancy-bench
// regenerates every table and figure of the paper.
package fancy

import (
	core "fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// Core detector types, re-exported.
type (
	// Config is FANcY's input: high-priority entries, memory budget and
	// protocol timing (Figure 1 of the paper).
	Config = core.Config
	// Detector attaches FANcY to a switch.
	Detector = core.Detector
	// Outputs are the per-port result structures: the dedicated-entry
	// flag array and the hash-path Bloom filter.
	Outputs = core.Outputs
	// Layout is the memory plan computed by input translation.
	Layout = core.Layout
	// Event is a detection event.
	Event = core.Event
	// EventKind classifies events.
	EventKind = core.EventKind
	// DetectorStats are the detector's cumulative robustness counters.
	DetectorStats = core.DetectorStats
	// TreeParams are the hash-based tree's width/depth/split.
	TreeParams = tree.Params
)

// Event kinds.
const (
	EventDedicated     = core.EventDedicated
	EventTreeZoomStart = core.EventTreeZoomStart
	EventTreeLeaf      = core.EventTreeLeaf
	EventUniform       = core.EventUniform
	EventLinkDown      = core.EventLinkDown
	EventLinkUp        = core.EventLinkUp
)

// Simulation substrate types, re-exported.
type (
	// Sim is the discrete-event simulator all experiments run on.
	Sim = sim.Sim
	// Time is a virtual timestamp in nanoseconds.
	Time = sim.Time
	// EntryID identifies a forwarding entry (destination prefix).
	EntryID = netsim.EntryID
	// Packet is the simulated packet.
	Packet = netsim.Packet
	// Switch is the P4-like switch model.
	Switch = netsim.Switch
	// Host is an end system.
	Host = netsim.Host
	// Failure injects gray-failure drops into a link direction.
	Failure = netsim.Failure
	// Chaos injects adversarial link conditions (corruption, duplication,
	// reordering, flapping) into a link direction.
	Chaos = netsim.Chaos
	// ChaosStats tallies what a Chaos injector did.
	ChaosStats = netsim.ChaosStats
	// Route is a forwarding decision with optional backup next hop.
	Route = netsim.Route
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewSim creates a deterministic simulator from a seed.
func NewSim(seed int64) *Sim { return sim.New(seed) }

// NewDetector attaches a FANcY detector to a switch, validating the
// configuration against its memory budget.
func NewDetector(s *Sim, sw *Switch, cfg Config) (*Detector, error) {
	return core.NewDetector(s, sw, cfg)
}

// NewSwitch creates a switch with the given port count.
func NewSwitch(s *Sim, name string, ports int) *Switch { return netsim.NewSwitch(s, name, ports) }

// NewHost creates a host.
func NewHost(s *Sim, name string) *Host { return netsim.NewHost(s, name) }

// Connect joins two node ports with a full-duplex link.
func Connect(s *Sim, a netsim.Node, aPort int, b netsim.Node, bPort int, cfg netsim.LinkConfig) *netsim.Link {
	return netsim.Connect(s, a, aPort, b, bPort, cfg)
}

// DeployLink attaches a detector pair to a netsim.LinkBed's monitored link
// (upstream port 1 → downstream port 0), for callers that build the bed
// themselves — with the backup link, say.
func DeployLink(bed *netsim.LinkBed, cfg Config) (core.LinkPair, error) {
	return core.DeployLink(bed, cfg)
}

// MonitoredLink is the canonical FANcY deployment: two switches joined by
// a monitored link, a source host feeding the upstream switch and a sink
// host behind the downstream one (Sim, Src, Dst, Up, Down and Link come from
// the embedded testbed). The upstream runs the sender FSMs, the downstream
// the receiver FSMs, and failures are injected on the upstream→downstream
// direction.
type MonitoredLink struct {
	*netsim.LinkBed

	// Upstream is the detector comparing counters (the one raising
	// events), Downstream runs the receiver side and Out holds the
	// monitored port's output structures.
	core.LinkPair

	// tcp starts every TCP flow of the link, so flow IDs never collide.
	tcp *traffic.Driver
}

// monitorPort is the upstream port the testbed's monitored link hangs off.
const monitorPort = 1

// MonitoredLinkOptions tune the topology. Zero values give the paper's
// defaults: 10 ms inter-switch delay, 100 Gbps links.
type MonitoredLinkOptions struct {
	Delay   Time
	RateBps float64
}

// NewMonitoredLink builds the canonical topology with default options; it
// panics if cfg does not fit its memory budget (use NewDetector directly
// for error handling).
func NewMonitoredLink(s *Sim, cfg Config) *MonitoredLink {
	ml, err := NewMonitoredLinkOpts(s, cfg, MonitoredLinkOptions{})
	if err != nil {
		panic(err)
	}
	return ml
}

// NewMonitoredLinkOpts builds the canonical topology.
func NewMonitoredLinkOpts(s *Sim, cfg Config, opts MonitoredLinkOptions) (*MonitoredLink, error) {
	if opts.Delay == 0 {
		opts.Delay = 10 * Millisecond
	}
	if opts.RateBps <= 0 {
		opts.RateBps = 100e9
	}
	edge := netsim.LinkConfig{Delay: Millisecond, RateBps: opts.RateBps, QueueBytes: 1 << 24}
	corecfg := netsim.LinkConfig{Delay: opts.Delay, RateBps: opts.RateBps, QueueBytes: 1 << 24}
	bed := netsim.NewLinkBed(s, edge, corecfg, false)
	pair, err := DeployLink(bed, cfg)
	if err != nil {
		return nil, err
	}
	return &MonitoredLink{
		LinkBed: bed, LinkPair: pair,
		tcp: traffic.NewDriver(s, bed.Src, bed.Dst, tcp.Config{}),
	}, nil
}

// OnEvent registers the detection event callback.
func (ml *MonitoredLink) OnEvent(fn func(Event)) { ml.Upstream.OnEvent = fn }

// UDP starts a constant-bit-rate UDP stream of 1000-byte packets for entry
// between start and stop virtual times. It panics here, not mid-run, on a
// rate that is not > 0 or too small or large to space packets in Time.
func (ml *MonitoredLink) UDP(entry EntryID, rateBps float64, start, stop Time) {
	u := traffic.NewUDPSource(ml.Sim, ml.Src, netsim.FlowID(entry), entry,
		netsim.EntryAddr(entry, 1), rateBps, 1000, stop)
	u.StartAt(start)
}

// TCP schedules closed-loop TCP flows for entry: flowsPerSec arrivals
// carrying rateBps aggregate for the given duration (flows last ≈1 s, as
// in the paper's synthetic workloads).
func (ml *MonitoredLink) TCP(entry EntryID, rateBps, flowsPerSec float64, duration Time) {
	ml.tcp.Schedule(traffic.SteadyEntry(entry, rateBps, flowsPerSec, duration, ml.Sim.Rand()))
}

// FailEntries injects a gray failure dropping rate of the listed entries'
// packets from time at onward.
func (ml *MonitoredLink) FailEntries(at Time, rate float64, entries ...EntryID) *Failure {
	f := netsim.FailEntries(ml.Sim.Rand().Int63(), at, rate, entries...)
	ml.Link.AB.SetFailure(f)
	return f
}

// FailUniform injects link-level random loss (affecting all packets,
// control messages included) from time at onward.
func (ml *MonitoredLink) FailUniform(at Time, rate float64) *Failure {
	f := netsim.FailUniform(ml.Sim.Rand().Int63(), at, rate)
	ml.Link.AB.SetFailure(f)
	return f
}

// ChaosForward installs an adversarial link-condition injector on the
// monitored (upstream→downstream) direction. Its RNG derives from the
// simulation seed, so runs replay deterministically. Configure the returned
// injector's fields before Sim.Run.
func (ml *MonitoredLink) ChaosForward() *Chaos {
	c := netsim.NewChaos(ml.Sim, "ml/forward")
	ml.Link.AB.SetChaos(c)
	return c
}

// ChaosReverse is ChaosForward for the downstream→upstream direction (the
// one carrying StartACK and Report messages).
func (ml *MonitoredLink) ChaosReverse() *Chaos {
	c := netsim.NewChaos(ml.Sim, "ml/reverse")
	ml.Link.BA.SetChaos(c)
	return c
}

// Flagged reports whether FANcY has flagged the entry on the monitored
// link — by dedicated counter or hash-based tree.
func (ml *MonitoredLink) Flagged(entry EntryID) bool {
	return ml.Upstream.Flagged(monitorPort, entry)
}

// MonitorPort returns the upstream port under monitoring.
func (ml *MonitoredLink) MonitorPort() int { return monitorPort }
