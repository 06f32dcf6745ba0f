// Package fleet is the ISP-wide control plane over FANcY: it deploys a
// detector at every switch of a topo topology, opens counting sessions on
// both directions of every inter-switch link (the full deployment of §4.3,
// "monitors all links, one by one"), and runs a central correlator that
// turns the resulting firehose of per-pair alarms into network-level
// verdicts.
//
// The paper frames FANcY as a per-link building block (Figure 1); an ISP
// operates hundreds of them at once. The fleet layer adds what the paper
// leaves to the operator:
//
//   - deduplication: a persistent gray failure re-flags the same entry every
//     counting session; the correlator collapses those into one incident;
//   - localization: an alarm is attributed to the exact directed link whose
//     upstream detector raised it, and only confirmed after an evidence
//     window in which competing explanations are ruled out;
//   - discrimination: alarms raised while the link (or the downstream
//     switch's egress queues) were congested are discarded, as §4.3
//     footnote 2 prescribes; alarms from a flapping or restarting peer
//     (the detector's link-down events and restart counter, the latter
//     read from each switch agent) are suppressed rather than misreported
//     as gray links;
//   - reaction: once a link is localized, the recorded evidence is replayed
//     into the internal/reroute application of that link, diverting exactly
//     the affected entries to their backup next hops (§6.1);
//   - reporting: a fleet-level event log plus an aggregate Snapshot with
//     per-link health, localization timestamps and robustness counters.
//
// Survivability (this layer's own gray-failure story): when Config.Mgmt is
// set, every report and read between a switch agent and the correlator
// traverses a simulated management network (internal/mgmt) with
// seed-deterministic loss, delay, duplication and partitions. Both ends are
// hardened for it: agents ship sequence-numbered, epoch-stamped reports
// with bounded retries and an offline spool; the correlator deduplicates,
// detects sequence holes, tracks per-switch liveness from heartbeats,
// checkpoints its evidence windows and verdicts, and survives crash/restart
// by replaying the checkpoint and reconciling with live telemetry. A switch
// partitioned from the correlator falls back to degraded-mode local
// protection — the per-link reroute application keeps protecting dedicated
// entries autonomously — and hands control back when the partition heals,
// with no duplicate confirmed verdicts.
package fleet

import (
	"fmt"
	"sort"

	"fancy/internal/fancy"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/reroute"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/verify"
)

// correlatorEndpoint is a lone replica's management-network address (a
// group with peers uses "corr0".."corrN-1"). The name is load-bearing: the
// network seeds one RNG per endpoint-name pair.
const correlatorEndpoint = "correlator"

// The control plane's fixed cadences and thresholds; no scenario varies them.
const (
	// sweepInterval is the cadence of the correlator's health sweep, which
	// reads each switch's restart counter through its agent and emits
	// health-transition events.
	sweepInterval = 250 * sim.Millisecond

	// checkpointInterval is the cadence of the correlator's periodic
	// checkpoint — a backstop: every durable change also persists at once.
	checkpointInterval = 250 * sim.Millisecond

	// A link is flapping when at least flapThreshold link-down reports land
	// within flapWindow.
	flapWindow    = 5 * sim.Second
	flapThreshold = 2

	// guardInterval is the queue-sampling cadence of the fleet's guard.
	guardInterval = 5 * sim.Millisecond
)

// Config tunes the fleet control plane.
type Config struct {
	// Fancy is the per-detector configuration applied at every switch.
	Fancy fancy.Config

	// Window is the evidence-gathering delay between the first alarm on a
	// link and the correlator's verdict; corroborating alarms accumulate
	// and competing explanations (flap, restart, congestion) are checked
	// at the end. Default 100 ms — two dedicated counting sessions.
	Window sim.Time

	// CongestionBytes is the per-direction transmit-queue depth above
	// which the fleet's queue guard marks the surrounding window congested
	// (suppressing gray verdicts, §4.3 footnote 2). Default 256 KB;
	// negative disables congestion guarding.
	CongestionBytes int

	// Mgmt, when non-nil, interposes a simulated management network
	// between every switch agent and the correlator. Nil is direct mode:
	// the same agents and the same correlator lifecycle over a perfect
	// in-process transport (reports deliver instantly and reads are
	// synchronous).
	Mgmt *mgmt.Config

	// Replicas sizes the correlator's replica group. 0 or 1 is a group of
	// one: endpoint "correlator", checkpoint/restart durability, nobody to
	// beat, replicate to or elect. More (endpoints "corr0".."corrN-1",
	// requires Mgmt) adds consensus: confirmed verdicts, gating reroute
	// commits and evidence-window checkpoints travel a Paxos-style
	// replicated log over the management network, leader election is driven
	// by phi-accrual suspicion of the leader's beats, and switch agents
	// discover the leader by redirect.
	Replicas int

	// HH, when non-nil, deploys the heavy-hitter stage on every detector
	// and runs a counter-allocation controller in each switch agent: the
	// stage's periodic top-k reports drive hysteresis-gated promotion of
	// hot prefixes into the switch's dynamic dedicated-counter slots (and
	// demotion once they cool), so newly hot traffic is detected at
	// dedicated-counter speed instead of waiting out tree zooming. The
	// loop is local to each switch — it keeps allocating through
	// management-plane partitions.
	HH *HHFleetConfig

	// Verify, when non-nil, gates every fleet-wide reroute commit behind an
	// incremental atom-based safety check (internal/verify): a flip whose
	// post-commit forwarding state would contain a loop or blackhole is
	// rejected and repaired (alternate next hop, or hold-and-retry).
	// Requires routes to be installed before New so the model snapshot is
	// accurate. See internal/fleet/verify.go for the gate semantics.
	Verify *VerifyConfig
}

// HHFleetConfig tunes the fleet's heavy-hitter allocation loop. The digests
// (every 100 ms, top 8) and the allocator's hysteresis (2 consecutive hot
// reports to promote, 3 absences to demote, window count ≥ 2 to qualify) are
// the fancy and hh defaults; no scenario varies them.
type HHFleetConfig struct {
	// Sketch sizes each detector's per-port sketch (defaults 3×32; each
	// port derives its own seed from Sketch.Seed).
	Sketch hh.Params

	// DynamicSlots is the number of runtime-assignable dedicated-counter
	// slots per port, beyond Fancy.HighPriority (default 8).
	DynamicSlots int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 100 * sim.Millisecond
	}
	if c.CongestionBytes == 0 {
		c.CongestionBytes = 256 << 10
	}
	if c.Verify != nil {
		v := *c.Verify
		if v.MaxRetries == 0 {
			v.MaxRetries = 5
		}
		c.Verify = &v
	}
	if c.HH != nil {
		h := *c.HH
		if h.DynamicSlots == 0 {
			h.DynamicSlots = 8
		}
		c.HH = &h
		// Project the fleet knobs onto the per-detector config; the
		// sketch defaults cascade through fancy/hh.
		c.Fancy.HH = &fancy.HHStageConfig{Sketch: h.Sketch}
		c.Fancy.DynamicSlots = h.DynamicSlots
	}
	return c
}

// linkState is the correlator's per-directed-link record: the link's fixed
// wiring plus its durable record.
type linkState struct {
	f     *Fleet
	dl    topo.DirectedLink
	key   string // "from->to"
	port  int    // monitored egress port at dl.From
	guard *queueWatch

	verdictTimer sim.Timer // fires a verdictDue

	linkRecord // the durable part (state.go)
}

// CorrelatorStats are the correlator's management-plane robustness counters.
type CorrelatorStats struct {
	// StaleEvents counts event reports discarded because they were stamped
	// with a detector epoch that predates the switch's current incarnation
	// (emitted before a restart, delivered after).
	StaleEvents uint64
	// EpochPurges counts evidence windows cleared because the upstream
	// switch's epoch advanced mid-window.
	EpochPurges uint64
	// GetFails counts verdict- or sweep-time restart-counter reads that
	// exhausted their retry budget (switch unreachable over the management
	// plane).
	GetFails uint64
	// RerouteCmdFails counts gating commands the correlator could not
	// deliver to a switch agent.
	RerouteCmdFails uint64
	// Checkpoints, Crashes and Restores count correlator lifecycle events.
	Checkpoints uint64
	Crashes     uint64
	Restores    uint64
	// Handbacks counts degraded-mode reconciliations received from agents
	// after a partition healed.
	Handbacks uint64
	// Elections counts leader-election campaigns started by any replica
	// (including retries); Failovers counts completed takeovers where a new
	// leader restored the fleet state machine from the replicated log.
	Elections uint64
	Failovers uint64
	// QuorumLosses counts transitions into degraded single-instance mode (a
	// leader alive but unable to reach an acknowledgment majority).
	QuorumLosses uint64
	// WireRejects counts consensus datagrams dropped by the strict decoder.
	WireRejects uint64
}

// Fleet is a deployed ISP-wide control plane.
type Fleet struct {
	S   *sim.Sim
	Net *topo.Network
	cfg Config

	// Detectors holds one FANcY instance per switch.
	Detectors map[string]*fancy.Detector

	switches []string // sorted switch names, the canonical iteration order
	agents   map[string]*switchAgent

	// The correlator is always a replica group (of one unless cfg.Replicas
	// says more), over the management plane when there is one: mgmtNet and
	// every replica's server are nil in direct mode.
	mgmtNet *mgmt.Network
	group   *corrGroup

	// announced deduplicates externally visible verdict announcements
	// (operator alerts + reroute replays) across crashes and failovers,
	// keyed "link|localizedAt" — the sink-level dedup an operator alerting
	// pipeline applies.
	announced map[string]bool

	// corrState is the correlator's durable state — the aggregate counters
	// (Alarms, Suppressed, Localizations, Reroutes), the per-link records
	// and the dedup maps. A crash loses whatever changed since the active
	// replica's last frame (its accepted entry); a restart or takeover
	// decodes the restoring replica's frame back into it (restoreState).
	corrState
	ckptKeys []string // checkpoint's scratch stack for sorting map keys (encodeMap)

	order     []string // sorted link keys, the canonical iteration order
	portLink  map[string]map[int]*linkState
	aliveSeen map[string]bool // last sweep's per-switch liveness

	corrGen    int // bumped by each crash; stale async callbacks check it
	sweepTimer sim.Timer
	ckptTimer  sim.Timer

	// Verified-commit gate (populated only with Config.Verify; see
	// internal/fleet/verify.go).
	verifier    *verify.Model
	verifySeen  map[string]uint8 // decision key → outcome, indexes verifyLog
	verifyTimer sim.Timer

	// Verify tallies the gate's work (zero-valued without Config.Verify).
	Verify VerifyStats

	// Events is the fleet-level event log; OnEvent, if set, streams it.
	Events  []Event
	OnEvent func(Event)

	// Corr tallies management-plane robustness at the correlator.
	Corr CorrelatorStats
}

// New deploys FANcY on every switch of net, monitors both directions of
// every inter-switch link, and starts the correlator. The topology's routes
// should already be installed (the detectors themselves need none, but the
// traffic under observation does).
func New(s *sim.Sim, net *topo.Network, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		S: s, Net: net, cfg: cfg,
		Detectors:  make(map[string]*fancy.Detector),
		agents:     make(map[string]*switchAgent),
		corrState:  corrState{links: make(map[string]*linkState)},
		portLink:   make(map[string]map[int]*linkState),
		aliveSeen:  make(map[string]bool),
		announced:  make(map[string]bool),
		verifySeen: make(map[string]uint8),
	}
	for sw := range net.Switches {
		f.switches = append(f.switches, sw)
	}
	sort.Strings(f.switches)
	if cfg.Replicas > 1 && cfg.Mgmt == nil {
		return nil, fmt.Errorf("fleet: Replicas=%d requires a management network (Config.Mgmt)", cfg.Replicas)
	}
	if cfg.Mgmt != nil {
		f.mgmtNet = mgmt.NewNetwork(s, *cfg.Mgmt)
	}
	f.group = newCorrGroup(f, max(cfg.Replicas, 1))
	for _, sw := range f.switches {
		det, err := fancy.NewDetector(s, net.Switches[sw], cfg.Fancy)
		if err != nil {
			return nil, fmt.Errorf("fleet: detector at %q: %w", sw, err)
		}
		f.Detectors[sw] = det
		f.portLink[sw] = make(map[int]*linkState)
	}
	for _, dl := range net.DirectedLinks() {
		port := net.PortOf[dl.From][dl.To]
		f.Detectors[dl.From].MonitorPort(port)
		f.Detectors[dl.To].ListenPort(net.PortOf[dl.To][dl.From])
		ls := &linkState{f: f, dl: dl, key: dl.String(), port: port}
		f.links[ls.key] = ls
		f.order = append(f.order, ls.key)
		f.portLink[dl.From][port] = ls
	}
	sort.Strings(f.order)
	if cfg.CongestionBytes >= 0 {
		// One sampler for every direction, queued after the monitors'
		// first sessions (DESIGN.md §11).
		g := newQueueGuard(s, cfg.CongestionBytes, guardInterval)
		for _, key := range f.order {
			ls := f.links[key]
			ls.guard = g.watch(net.Direction(ls.dl.From, ls.dl.To))
		}
	}
	f.corrState.alloc()
	// One management agent per switch; detector events flow into the agent
	// and from there over the management plane into the correlator.
	for _, sw := range f.switches {
		a := newSwitchAgent(f, sw)
		f.agents[sw] = a
		f.Detectors[sw].OnEvent = a.onDetectorEvent
		if cfg.HH != nil {
			f.Detectors[sw].OnHHReport = a.onHHReport
		}
	}
	if cfg.Verify != nil {
		f.verifier = verify.NewModel(net)
	}
	f.sweepTimer = s.ScheduleTimerActor(sweepInterval, (*sweepTick)(f))
	f.ckptTimer = s.ScheduleTimerActor(checkpointInterval, (*checkpointTick)(f))
	return f, nil
}

// PartitionSwitch cuts a switch agent off the management network; its
// detectors keep running and, if entries are protected there,
// degraded-mode local protection takes over. No-op in direct mode.
func (f *Fleet) PartitionSwitch(sw string) {
	if f.mgmtNet != nil {
		f.mgmtNet.Partition(sw)
	}
}

// HealSwitch reconnects a partitioned switch; its agent replays spooled
// reports and hands gating back to the correlator.
func (f *Fleet) HealSwitch(sw string) {
	if f.mgmtNet != nil {
		f.mgmtNet.Heal(sw)
	}
}

// Link returns the correlator's view of a directed link ("A->B" key),
// primarily for tests and reporting.
func (f *Fleet) link(key string) *linkState { return f.links[key] }

// Localized lists the directed links currently localized as gray, sorted.
func (f *Fleet) Localized() []string {
	var out []string
	for _, key := range f.order {
		if f.links[key].localized {
			out = append(out, key)
		}
	}
	return out
}

// LocalizedAt reports when a directed link was localized (0 if it is not).
func (f *Fleet) LocalizedAt(key string) sim.Time {
	if ls, ok := f.links[key]; ok && ls.localized {
		return ls.localizedAt
	}
	return 0
}

// AffectedEntries lists the dedicated entries confirmed failing on a
// localized link, sorted.
func (f *Fleet) AffectedEntries(key string) []netsim.EntryID {
	ls, ok := f.links[key]
	if !ok {
		return nil
	}
	var out []netsim.EntryID
	for e := range ls.affected {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Protect registers an entry for gated fast rerouting at a switch. The
// route's primary port must be a monitored inter-switch port and its Backup
// must be valid; when the correlator localizes that port's link as gray,
// the triggering evidence is replayed into the reroute application and the
// entry flips to its backup next hop. Unlike a raw reroute.App wired
// straight into a detector, reaction waits for the correlator's verdict —
// alarms explained by congestion, flapping or a peer restart divert nothing
// — except in degraded mode, when the agent cannot reach the correlator and
// the per-link application protects autonomously.
func (f *Fleet) Protect(sw string, entry netsim.EntryID, route *netsim.Route) error {
	a, ok := f.agents[sw]
	if !ok {
		return fmt.Errorf("fleet: unknown switch %q", sw)
	}
	if _, ok := f.portLink[sw][route.Port]; !ok {
		return fmt.Errorf("fleet: switch %q port %d is not a monitored inter-switch port", sw, route.Port)
	}
	app, ok := a.apps[route.Port]
	if !ok {
		app = reroute.New(f.S, f.Detectors[sw], route.Port)
		port := route.Port
		app.OnReroute = func(e netsim.EntryID, at sim.Time) {
			a.onLocalReroute(port, e, at)
		}
		a.apps[route.Port] = app
	}
	app.Protect(entry, route)
	return nil
}

// Rerouted reports whether a protected entry is on its backup path at sw.
func (f *Fleet) Rerouted(sw string, entry netsim.EntryID) bool {
	a, ok := f.agents[sw]
	if !ok {
		return false
	}
	for _, app := range a.apps {
		if app.Rerouted(entry) {
			return true
		}
	}
	return false
}

// Acknowledge clears a localized link after the operator acted on it: the
// detector outputs are wiped and the correlator's verdict reset — durably,
// so a crash does not resurrect it — and a persisting failure will re-alarm
// and re-localize.
func (f *Fleet) Acknowledge(key string) {
	ls, ok := f.links[key]
	if !ok {
		return
	}
	f.Detectors[ls.dl.From].Acknowledge(ls.port)
	if f.Crashed() {
		return // no correlator to tell; its state comes back from its frame
	}
	ls.localized = false
	ls.localizedAt = 0
	ls.evidence = nil
	clear(ls.seen)
	clear(ls.affected)
	ls.treePaths = 0
	f.persist()
}

func (f *Fleet) emit(ev Event) {
	f.Events = append(f.Events, ev)
	if f.OnEvent != nil {
		f.OnEvent(ev)
	}
}

// emitOnce emits ev unless key was already announced, reporting whether it
// emitted. The announced set survives correlator crashes and failovers —
// it models the alert sink, not correlator state.
func (f *Fleet) emitOnce(key string, ev Event) bool {
	if f.announced[key] {
		return false
	}
	f.announced[key] = true
	f.emit(ev)
	return true
}
