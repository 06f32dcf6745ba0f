package fleet

import (
	"fmt"
	"slices"

	"fancy/internal/fancy"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// EventKind classifies fleet-level events.
type EventKind uint8

// Fleet event kinds.
const (
	// EventAlarm: a deduplicated gray alarm (dedicated mismatch, tree leaf
	// or uniform report) arrived from a link's upstream detector.
	EventAlarm EventKind = iota
	// EventLocalized: the correlator confirmed a gray failure on the link
	// after the evidence window.
	EventLocalized
	// EventSuppressed: an incident's alarms were discarded; Detail names
	// the competing explanation (congestion, link-flapping, peer-restart).
	EventSuppressed
	// EventRerouted: a protected entry flipped to its backup next hop.
	EventRerouted
	// EventLinkDown / EventLinkUp mirror the detector's connectivity
	// reports, attributed to the directed link.
	EventLinkDown
	EventLinkUp
	// EventLinkFlapping: repeated link-down reports within the flap window.
	EventLinkFlapping
	// EventLinkCongested: the link's transmit queue crossed the congestion
	// threshold during the last sweep.
	EventLinkCongested
	// EventPeerRestart: a switch's restart counter advanced (device
	// reboot, epoch bump).
	EventPeerRestart
	// EventSwitchUnreachable / EventSwitchReachable: heartbeat-based
	// liveness transitions of a switch's management agent.
	EventSwitchUnreachable
	EventSwitchReachable
	// EventDegradedHandback: a switch agent reconciled after a partition —
	// it reports how long it protected autonomously and hands gating back.
	EventDegradedHandback
	// EventCorrelatorCrash / EventCorrelatorRestart bracket a correlator
	// outage; restart carries what the checkpoint recovered.
	EventCorrelatorCrash
	EventCorrelatorRestart
	// EventLeaderElected: a correlator replica won an election and took
	// over the fleet state machine; Detail carries the ballot and what the
	// replicated log recovered.
	EventLeaderElected
	// EventQuorumLost / EventQuorumRestored bracket a leader's loss of its
	// acknowledgment quorum: between them the leader runs in explicit
	// degraded single-instance mode (PR 3 checkpoint/restart semantics).
	EventQuorumLost
	EventQuorumRestored
	// EventRerouteRejected: the verified-commit gate found the requested
	// backup flip unsafe (Detail carries the verifier's verdict), or a held
	// flip was abandoned after exhausting its retries.
	EventRerouteRejected
	// EventRerouteRepaired: an unsafe flip was diverted via an alternate
	// safe next hop instead.
	EventRerouteRepaired
	// EventRerouteHeld: no safe next hop exists right now; the flip is
	// parked and re-checked as the forwarding state evolves.
	EventRerouteHeld
	// EventVerifyFallback: a commit went through unverified — the model
	// could not evaluate it, or a degraded agent rerouted autonomously.
	EventVerifyFallback
)

func (k EventKind) String() string {
	switch k {
	case EventAlarm:
		return "alarm"
	case EventLocalized:
		return "localized"
	case EventSuppressed:
		return "suppressed"
	case EventRerouted:
		return "rerouted"
	case EventLinkDown:
		return "link-down"
	case EventLinkUp:
		return "link-up"
	case EventLinkFlapping:
		return "link-flapping"
	case EventLinkCongested:
		return "link-congested"
	case EventPeerRestart:
		return "peer-restart"
	case EventSwitchUnreachable:
		return "switch-unreachable"
	case EventSwitchReachable:
		return "switch-reachable"
	case EventDegradedHandback:
		return "degraded-handback"
	case EventCorrelatorCrash:
		return "correlator-crash"
	case EventCorrelatorRestart:
		return "correlator-restart"
	case EventLeaderElected:
		return "leader-elected"
	case EventQuorumLost:
		return "quorum-lost"
	case EventQuorumRestored:
		return "quorum-restored"
	case EventRerouteRejected:
		return "reroute-rejected"
	case EventRerouteRepaired:
		return "reroute-repaired"
	case EventRerouteHeld:
		return "reroute-held"
	case EventVerifyFallback:
		return "verify-fallback"
	}
	return fmt.Sprintf("fleet-event(%d)", uint8(k))
}

// Event is one entry of the fleet-level event log.
type Event struct {
	Time sim.Time
	Kind EventKind
	// Link is the directed link ("A->B") the event concerns; for
	// per-switch events (EventPeerRestart, liveness, handback) it is the
	// switch's name.
	Link string
	// Entry is set for per-entry events (EventAlarm on a dedicated entry,
	// EventRerouted); netsim.InvalidEntry otherwise.
	Entry netsim.EntryID
	// Detail carries the human-readable specifics (suppression reason,
	// evidence summary).
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("[%v] %s %s", e.Time, e.Link, e.Kind)
	if e.Entry != netsim.InvalidEntry {
		s += fmt.Sprintf(" entry=%d", e.Entry)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Health is the correlator's verdict on one directed link.
type Health uint8

// Link health states, in decreasing precedence.
const (
	HealthUnknown Health = iota
	HealthDown
	HealthFlapping
	HealthGray
	HealthCongested
	HealthHealthy
)

func (h Health) String() string {
	switch h {
	case HealthDown:
		return "down"
	case HealthFlapping:
		return "flapping"
	case HealthGray:
		return "GRAY"
	case HealthCongested:
		return "congested"
	case HealthHealthy:
		return "healthy"
	}
	return "unknown"
}

// handleReport consumes one report from a switch agent, after transport
// dedup. The correlator never processes anything while crashed (the
// management server already drops inbound then; this guard covers direct
// mode's synchronous path).
func (f *Fleet) handleReport(sw string, payload any) {
	if f.Crashed() {
		return
	}
	switch r := payload.(type) {
	case eventReport:
		if f.staleEpoch(sw, r.Epoch) {
			f.Corr.StaleEvents++
			return
		}
		f.onDetectorEvent(sw, r.Ev)
	case rerouteReport:
		f.onRerouteReport(sw, r)
	case reconcileReport:
		f.Corr.Handbacks++
		f.emit(Event{Time: f.S.Now(), Kind: EventDegradedHandback, Link: sw, Entry: netsim.InvalidEntry,
			Detail: fmt.Sprintf("degraded since %v, %d local reroute(s)", r.Since, r.Reroutes)})
	}
}

// staleEpoch is the evidence-window epoch guard: event reports stamped with
// a previous detector incarnation's epoch (emitted before a restart,
// delivered after it by a slow management plane) are discarded, and an
// epoch advance purges the switch's pending evidence windows — counter
// state cannot be compared across a reboot.
func (f *Fleet) staleEpoch(sw string, epoch uint8) bool {
	if epoch == 0 {
		return false // unstamped (not expected, but fail open)
	}
	cur := f.epochCur[sw]
	switch epoch {
	case cur:
		return false
	case f.epochPrev[sw]:
		return true // a previous incarnation's report, delivered late
	}
	// First report of a new incarnation: adopt it and clamp any evidence
	// window still running against the old epoch's counters.
	if cur != 0 {
		f.purgeEpoch(sw)
	}
	f.epochPrev[sw] = cur
	f.epochCur[sw] = epoch
	return false
}

// purgeEpoch discards pending (unconfirmed) evidence on every link whose
// upstream detector just changed epochs, stopping the window timers so a
// verdict never fires over cross-epoch evidence. Confirmed verdicts stand.
func (f *Fleet) purgeEpoch(sw string) {
	now := f.S.Now()
	for _, key := range f.order {
		ls := f.links[key]
		if ls.dl.From != sw || !ls.verdictPending {
			continue
		}
		f.Corr.EpochPurges++
		n := len(ls.evidence)
		ls.suppressed += n
		f.Suppressed += n
		f.emit(Event{Time: now, Kind: EventSuppressed, Link: ls.key, Entry: netsim.InvalidEntry,
			Detail: fmt.Sprintf("epoch-change, %d alarm(s) discarded", n)})
		ls.verdictTimer.Stop()
		ls.verdictPending = false
		ls.evidence = nil
		for k := range ls.seen {
			delete(ls.seen, k)
		}
	}
	f.persist()
}

// onRerouteReport records a reroute performed at a switch (gated or
// degraded-local), deduplicating replays after crashes or partitions.
func (f *Fleet) onRerouteReport(sw string, r rerouteReport) {
	key := fmt.Sprintf("%s|%d|%d", sw, r.Port, r.Entry)
	if f.rerouteSeen[key] {
		return
	}
	f.rerouteSeen[key] = true
	f.Reroutes++
	linkKey := sw
	if ls, ok := f.portLink[sw][r.Port]; ok {
		linkKey = ls.key
	}
	detail := ""
	if r.Degraded {
		detail = "degraded-local"
	}
	f.emit(Event{Time: f.S.Now(), Kind: EventRerouted, Link: linkKey, Entry: r.Entry, Detail: detail})
	f.persist()
	if r.Degraded && f.verifier != nil {
		f.syncDegradedReroute(sw, r, key)
	}
}

// onDetectorEvent routes one detector event into the correlator. It runs
// for every monitored port of every switch — the first code in the repo
// that sees more than one detector at a time.
func (f *Fleet) onDetectorEvent(sw string, ev fancy.Event) {
	ls, ok := f.portLink[sw][ev.Port]
	if !ok {
		return // not an inter-switch port
	}
	now := f.S.Now()
	switch ev.Kind {
	case fancy.EventLinkDown:
		ls.downTimes = append(ls.downTimes, now)
		f.pruneFlaps(ls, now)
		f.emit(Event{Time: now, Kind: EventLinkDown, Link: ls.key, Entry: netsim.InvalidEntry})
		if !ls.flapping && len(ls.downTimes) >= flapThreshold {
			ls.flapping = true
			f.emit(Event{Time: now, Kind: EventLinkFlapping, Link: ls.key, Entry: netsim.InvalidEntry,
				Detail: fmt.Sprintf("%d outages within %v", len(ls.downTimes), flapWindow)})
		}
	case fancy.EventLinkUp:
		f.emit(Event{Time: now, Kind: EventLinkUp, Link: ls.key, Entry: netsim.InvalidEntry})
	case fancy.EventDedicated, fancy.EventTreeLeaf, fancy.EventUniform:
		f.onAlarm(ls, ev)
	}
	// EventTreeZoomStart is diagnostic only: zooming has begun, but there
	// is nothing to localize until a leaf (or the uniform test) reports.
}

// alarmKey collapses the per-session repetition of a persistent failure:
// one dedicated entry, one tree path or the uniform signal each count once
// per incident. Duplicated deliveries on the management channel collapse
// onto the same key, so evidence is never double-counted.
func alarmKey(ev fancy.Event) string {
	switch ev.Kind {
	case fancy.EventDedicated:
		return fmt.Sprintf("d/%d", ev.Entry)
	case fancy.EventTreeLeaf:
		return fmt.Sprintf("t/%v", ev.Path)
	default:
		return "uniform"
	}
}

func (f *Fleet) onAlarm(ls *linkState, ev fancy.Event) {
	now := f.S.Now()
	key := alarmKey(ev)
	if ls.seen[key] {
		return // same evidence, later session (or a duplicate): deduplicated
	}
	ls.seen[key] = true
	ls.alarms++
	f.Alarms++

	if ls.localized {
		// The link is already a confirmed gray link; new evidence extends
		// the affected set and reacts with no second window.
		f.recordEvidence(ls, ev)
		f.commit("evidence "+ls.key, func() { f.react(ls, []fancy.Event{ev}) })
		return
	}
	entry := netsim.InvalidEntry
	if ev.Kind == fancy.EventDedicated {
		entry = ev.Entry
	}
	f.emit(Event{Time: now, Kind: EventAlarm, Link: ls.key, Entry: entry,
		Detail: ev.Kind.String()})
	ls.evidence = append(ls.evidence, ev)
	if !ls.verdictPending {
		ls.verdictPending = true
		ls.incidentStart = now
		ls.verdictTimer = f.S.ScheduleTimerActor(f.cfg.Window, (*verdictDue)(ls))
	}
	// Consumed reports are already acknowledged and will never be
	// retransmitted: persist the accepted evidence now, or a crash before
	// the next periodic checkpoint loses the alarm for good (a degraded
	// reroute may remove the symptom, so it would never re-fire).
	f.persist()
}

// verdict closes an incident's evidence window. Before deciding, it
// refreshes both ends' restart counters through the management plane (the
// hardened Get path); the decision itself runs in finishVerdict once both
// reads complete or exhaust their retries. A crash between the two phases
// abandons the verdict — the restored correlator re-opens the window.
func (f *Fleet) verdict(ls *linkState) {
	if f.Crashed() {
		return
	}
	gen := f.corrGen
	pending := 2
	done := func() {
		pending--
		if pending == 0 && gen == f.corrGen && !f.Crashed() && ls.verdictPending {
			f.finishVerdict(ls)
		}
	}
	f.refreshRestarts(ls.dl.From, done)
	f.refreshRestarts(ls.dl.To, done)
}

// finishVerdict: either a competing explanation stands — and the alarms are
// discarded — or the link is localized as gray and the reaction fires.
func (f *Fleet) finishVerdict(ls *linkState) {
	ls.verdictPending = false
	now := f.S.Now()

	reason := ""
	switch {
	case f.Detectors[ls.dl.From].LinkDown(ls.port) || ls.flapping:
		// Counter state around an outage is untrustworthy, and a flapping
		// peer is its own diagnosis — not a gray link.
		reason = "link-flapping"
	case f.restartObserved[ls.dl.From] >= ls.incidentStart ||
		f.restartObserved[ls.dl.To] >= ls.incidentStart:
		// A rebooted device wiped its counters (epoch bump); evidence
		// spanning the restart cannot be trusted. The stale-epoch guard
		// makes this rare, but the correlator still refuses to localize
		// across a reboot.
		reason = "peer-restart"
	case f.congestedDuring(ls, ls.incidentStart, now):
		// §4.3 footnote 2: discard measurements collected while queues
		// were excessively long.
		reason = "congestion"
	}
	if reason != "" {
		n := len(ls.evidence)
		ls.suppressed += n
		f.Suppressed += n
		f.emit(Event{Time: now, Kind: EventSuppressed, Link: ls.key, Entry: netsim.InvalidEntry,
			Detail: fmt.Sprintf("%s, %d alarm(s) discarded", reason, n)})
		// Reset the incident: a genuine persistent failure will re-alarm
		// on later sessions and get a clean verdict.
		ls.evidence = nil
		for k := range ls.seen {
			delete(ls.seen, k)
		}
		f.persist()
		return
	}

	ls.localized = true
	ls.localizedAt = now
	f.Localizations++
	for _, ev := range ls.evidence {
		f.recordEvidence(ls, ev)
	}
	detail := fmt.Sprintf("%d alarm(s) in %v%s", len(ls.evidence), now-ls.incidentStart, f.corroboration(ls))
	// The evidence stays on the link until the effects run, so a leader that
	// dies before the commit leaves a checkpoint from which the next leader
	// can finish the job (see announcePending).
	f.commit("verdict "+ls.key, func() { f.announceLocalized(ls, detail) })
}

// announceLocalized fires a confirmed verdict's external effects: the
// EventLocalized alert and the evidence replay into the upstream reroute
// application. The alert is deduplicated on (link, localization time) — the
// same sink-level dedup an operator alerting pipeline applies — so a
// verdict that commits on one leader and is finished by its successor
// announces exactly once, and the reroute replay is idempotent at the
// agent. Clears the link's pending evidence either way.
func (f *Fleet) announceLocalized(ls *linkState, detail string) {
	if !ls.localized {
		return // superseded (acknowledged) before the commit landed
	}
	key := fmt.Sprintf("%s|%d", ls.key, int64(ls.localizedAt))
	if f.emitOnce(key, Event{Time: f.S.Now(), Kind: EventLocalized, Link: ls.key,
		Entry: netsim.InvalidEntry, Detail: detail}) {
		f.react(ls, ls.evidence)
	}
	ls.evidence = nil
	if f.replicating() {
		f.persist() // at quorum, after the entry that carried the evidence
	}
}

// announcePending finishes verdicts a previous leader confirmed but never
// announced: a localized link restored with its evidence still attached
// means the commit closure never ran on the dead leader. The emitOnce dedup
// keeps this safe against the race where the old leader did announce just
// before dying.
func (f *Fleet) announcePending() {
	for _, key := range f.order {
		ls := f.links[key]
		if ls.localized && len(ls.evidence) > 0 {
			f.announceLocalized(ls, fmt.Sprintf("%d alarm(s), finished after failover", len(ls.evidence)))
		}
	}
}

func (f *Fleet) recordEvidence(ls *linkState, ev fancy.Event) {
	switch ev.Kind {
	case fancy.EventDedicated:
		ls.affected[ev.Entry] = true
	case fancy.EventTreeLeaf:
		ls.treePaths++
	}
}

// react is the only code that turns confirmed evidence into commands: it
// resolves the evidence to its target entries once (reroute.App.Targets,
// deduplicated, ascending) and sends the link's upstream switch one command
// per entry. With the verify gate each entry's flip is checked first
// (gateEntry); without it the entry flips to its configured backup, and an
// entry already on it is the agent's no-op. Runs inside the consensus
// commit callback when replicating, so gate checks are serialized by the
// log.
func (f *Fleet) react(ls *linkState, evidence []fancy.Event) {
	a := f.agents[ls.dl.From]
	app, ok := a.apps[ls.port]
	if !ok {
		return // nothing protected there
	}
	var entries []netsim.EntryID
	for _, ev := range evidence {
		entries = append(entries, app.Targets(ev)...)
	}
	slices.Sort(entries)
	for _, e := range slices.Compact(entries) {
		if f.verifier != nil {
			f.gateEntry(ls, app, e)
			continue
		}
		route, _ := app.Route(e)
		f.command(ls.dl.From, repairCmd{Port: ls.port, Entry: e, Backup: route.Backup})
	}
	// A fresh commit may have changed the state a held flip was parked on.
	f.retryHeld(false)
}

// corroboration reports multi-vantage context for a localization: other
// links currently alarming or localized share the blame only if the same
// dedicated entries appear there — otherwise the verdict stands alone.
func (f *Fleet) corroboration(ls *linkState) string {
	multi := 0
	for _, key := range f.order {
		other := f.links[key]
		if other == ls || (!other.localized && len(other.evidence) == 0) {
			continue
		}
		for _, ev := range other.evidence {
			if ev.Kind == fancy.EventDedicated && ls.affected[ev.Entry] {
				multi++
			}
		}
		for e := range other.affected {
			if ls.affected[e] {
				multi++
			}
		}
	}
	if multi == 0 {
		return ""
	}
	return fmt.Sprintf(", %d shared-entry alarm(s) elsewhere: possible multi-point failure", multi)
}

// refreshRestarts reads a switch's restart counter through the management
// plane (hardened read: timeout, bounded retries, backoff) and records any
// advance with an EventPeerRestart plus an observation timestamp that
// finishVerdict checks against the incident window. done always fires
// exactly once; an unreachable switch counts a GetFail and leaves the
// cached observation in place (fail open — a persisting failure re-alarms,
// so a wrong verdict self-corrects at the next incident).
func (f *Fleet) refreshRestarts(sw string, done func()) {
	gen := f.corrGen
	f.remoteRestarts(sw, func(v any, err error) {
		defer func() {
			if done != nil {
				done()
			}
		}()
		if gen != f.corrGen || f.Crashed() {
			return // response addressed to a crashed incarnation
		}
		if err != nil {
			f.Corr.GetFails++
			return
		}
		if r := v.(int); r > f.restartsSeen[sw] {
			f.restartsSeen[sw] = r
			f.restartObserved[sw] = f.S.Now()
			f.emit(Event{Time: f.S.Now(), Kind: EventPeerRestart, Link: sw, Entry: netsim.InvalidEntry,
				Detail: fmt.Sprintf("restart counter now %d", r)})
		}
	})
}

// congestedDuring reports whether the link itself or any egress queue of
// its downstream switch was congested in [from, to] — the two positions
// where queue build-up can coincide with (and explain away) loss that an
// operator would otherwise blame on the link.
func (f *Fleet) congestedDuring(ls *linkState, from, to sim.Time) bool {
	if ls.guard != nil && ls.guard.congested(from, to) {
		return true
	}
	for _, nb := range f.Net.Neighbors(ls.dl.To) {
		if nb == ls.dl.From {
			continue
		}
		if down, ok := f.links[ls.dl.To+"->"+nb]; ok && down.guard != nil &&
			down.guard.congested(from, to) {
			return true
		}
	}
	return false
}

// pruneFlaps drops link-down reports older than the flap window and clears
// the flapping classification once the window is quiet again.
func (f *Fleet) pruneFlaps(ls *linkState, now sim.Time) {
	cutoff := now - flapWindow
	keep := ls.downTimes[:0]
	for _, t := range ls.downTimes {
		if t >= cutoff {
			keep = append(keep, t)
		}
	}
	ls.downTimes = keep
	if ls.flapping && len(ls.downTimes) == 0 && !f.Detectors[ls.dl.From].LinkDown(ls.port) {
		ls.flapping = false
	}
}

// healthOf resolves a link's current health, in precedence order.
func (f *Fleet) healthOf(ls *linkState, now sim.Time) Health {
	det := f.Detectors[ls.dl.From]
	switch {
	case det.LinkDown(ls.port):
		return HealthDown
	case ls.flapping:
		return HealthFlapping
	case ls.localized:
		return HealthGray
	case ls.guard != nil && ls.guard.congested(now-sweepInterval, now):
		return HealthCongested
	case det.SessionsCompleted(ls.port) > 0:
		return HealthHealthy
	}
	return HealthUnknown
}

// sweepTick, checkpointTick and verifyRetry are the Fleet as the sim.Actor
// of its sweep, periodic checkpoint and held-verification retry timers, and
// verdictDue a linkState as that of its verdict window.
type (
	sweepTick      Fleet
	checkpointTick Fleet
	verifyRetry    Fleet
	verdictDue     linkState
)

func (f *sweepTick) Fire()      { (*Fleet)(f).sweep() }
func (f *checkpointTick) Fire() { (*Fleet)(f).periodicCheckpoint() }
func (f *verifyRetry) Fire()    { (*Fleet)(f).verifyRetryTick() }
func (ls *verdictDue) Fire()    { ls.f.verdict((*linkState)(ls)) }

// sweep is the correlator's periodic pass: it refreshes flap state, samples
// the per-switch restart counters over the management plane, tracks agent
// liveness from heartbeats, and emits health-transition events.
func (f *Fleet) sweep() {
	if f.Crashed() {
		return
	}
	now := f.S.Now()
	for _, key := range f.order {
		ls := f.links[key]
		f.pruneFlaps(ls, now)
		h := f.healthOf(ls, now)
		if h != ls.lastHealth {
			if h == HealthCongested {
				f.emit(Event{Time: now, Kind: EventLinkCongested, Link: ls.key, Entry: netsim.InvalidEntry})
			}
			ls.lastHealth = h
		}
	}
	// Restart counters, sampled here for the event log even when no
	// verdict forces a fresh read; plus heartbeat-liveness transitions.
	for _, sw := range f.switches {
		f.refreshRestarts(sw, nil)
		if srv := f.active().srv; srv != nil {
			alive := srv.Alive(sw)
			if was, seen := f.aliveSeen[sw]; !seen || was != alive {
				if seen && !alive {
					f.emit(Event{Time: now, Kind: EventSwitchUnreachable, Link: sw, Entry: netsim.InvalidEntry})
				} else if seen {
					f.emit(Event{Time: now, Kind: EventSwitchReachable, Link: sw, Entry: netsim.InvalidEntry})
				}
				f.aliveSeen[sw] = alive
			}
		}
	}
	f.sweepTimer = f.S.ScheduleTimerActor(sweepInterval, (*sweepTick)(f))
}
