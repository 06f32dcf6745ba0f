package fleet

// The verified-commit gate: with Config.Verify set, the correlator consults
// an incremental atom-based forwarding model (internal/verify) before every
// fleet-wide reroute commit. A requested backup flip whose post-commit
// state would contain a forwarding loop or blackhole is rejected with the
// verifier's structured verdict; the correlator then attempts repair — the
// alternate backup next hops at the same switch, checked in neighbor-name
// order — and, failing that, parks the flip on a hold-and-retry list that
// re-checks after every later commit, restore or model sync (a conflicting
// reroute being rolled back is exactly what unblocks a held flip).
//
// The gate reads no route table: a flip's ports come from the link's
// protection plan, whether an entry is already diverted from the flips
// agents reported (rerouteSeen), and a restore rebuilds the model from the
// plan plus the decision log.
//
// Graceful degradation is the design anchor — verification must never make
// recovery strictly worse than not having it:
//
//   - A model error (e.g. a prefix installed after the model snapshot)
//     degrades that one commit to the unverified behavior, counted and
//     logged.
//   - Degraded-mode local protection bypasses the gate by design — the
//     agent cannot reach the correlator — and its reroutes are checked
//     when the report arrives at handback: a safe one is adopted into the
//     model, an unsafe one is refused and rolled back at the agent.
//
// Every gate decision is recorded in a replicated decision log keyed by
// (link, localization time, entry) and carried in the consensus checkpoint,
// so a leader failover re-issues accepted commits idempotently and can
// never double-commit (re-evaluate into acceptance) a rejected one.

import (
	"fmt"
	"slices"
	"sort"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// holdRetry is the cadence at which held (currently unrepairable) flips are
// re-checked against the evolved model: one evidence window.
const holdRetry = 100 * sim.Millisecond

// VerifyConfig tunes the verified-commit gate.
type VerifyConfig struct {
	// MaxRetries bounds the hold-and-retry attempts per held flip before it
	// is abandoned as a final rejection. Default 5.
	MaxRetries int
}

// Gate decision outcomes, replicated through the consensus checkpoint.
const (
	verifyCommitted uint8 = iota // requested backup checked safe and issued
	verifyRepaired               // alternate next hop substituted and issued
	verifyRejected               // no safe candidate; entry stays on primary
	verifyFallback               // committed unverified (gate degraded)
	verifyRevoked                // rolled back by RestoreEntry; gating reopens
)
const verifyOutcomeMax = verifyRevoked

// VerifyDecision is one replicated gate decision. Frame is the canonical
// verify.Delta encoding of the committed flip (empty for rejections); a
// restored or failed-over correlator replays frames into a fresh model and
// re-issues accepted commands from them.
type VerifyDecision struct {
	Key     string // "link|localizedAt|entry" (or "degraded|sw|port|entry")
	Outcome uint8
	Frame   []byte
}

// heldReroute is one parked flip.
type heldReroute struct {
	link    string // directed-link key
	key     string // decision key (verifyKey)
	entry   netsim.EntryID
	retries int
}

// VerifyStats counts the gate's work. Lifetime counters (like
// CorrelatorStats, they survive crashes and failovers).
type VerifyStats struct {
	Checked      uint64 // candidate flips evaluated against the model
	AtomsChecked uint64 // atoms re-walked across those checks
	Committed    uint64 // requested backups committed as-is
	Rejected     uint64 // requested backups rejected as unsafe
	Repaired     uint64 // rejections resolved via an alternate next hop
	Held         uint64 // rejections parked for hold-and-retry
	Retries      uint64 // hold-and-retry passes over parked flips
	Abandoned    uint64 // parked flips dropped after MaxRetries
	Fallbacks    uint64 // unverified commits (model error, degraded)
	Errors       uint64 // model errors (treated as per-commit fallback)
}

// Verifier exposes the gate's forwarding model (nil without Config.Verify),
// for audits by experiments and demos.
func (f *Fleet) Verifier() *verify.Model { return f.verifier }

func verifyKey(ls *linkState, entry netsim.EntryID) string {
	return fmt.Sprintf("%s|%d|%d", ls.key, int64(ls.localizedAt), entry)
}

func (f *Fleet) entryDelta(ls *linkState, entry netsim.EntryID, port int) *verify.Delta {
	return verify.NewDelta(ls.key, []verify.Flip{verify.EntryFlip(ls.dl.From, entry, port)})
}

// gateEntry is react's step for one planned entry with the verifier in the
// loop: the entry's flip is checked, and only a safe (or repaired) flip is
// issued as its command.
func (f *Fleet) gateEntry(ls *linkState, p planned) {
	if p.backup < 0 || f.rerouteSeen[seenKey(ls, p.entry)] {
		return // nothing to divert (or already diverted: idempotent)
	}
	key := verifyKey(ls, p.entry)
	for _, h := range f.verifyHeld {
		if h.key == key {
			return // already parked; the retry loop owns it now
		}
	}
	if out, done := f.verifySeen[key]; done && out != verifyRevoked {
		// A previous leader (or an earlier evidence replay) already decided
		// this commit. Accepted outcomes are re-issued — idempotent at the
		// agent; a rejected commit is never re-evaluated into acceptance:
		// that is the double-commit the replicated decision log prevents.
		// (A revoked decision falls through: RestoreEntry rolled the flip
		// back, so new evidence gates fresh against the current model.)
		if out != verifyRejected {
			f.reissue(ls, key)
		}
		return
	}
	f.tryCommit(ls, p, key, true)
}

// tryCommit checks the entry's requested backup flip against the model and,
// when unsafe, walks the repair alternates. announce is false on
// hold-and-retry passes: no rejection event, no new hold record. Reports
// whether a flip committed (or there was nothing left to do).
func (f *Fleet) tryCommit(ls *linkState, p planned, key string, announce bool) bool {
	if p.backup < 0 || f.rerouteSeen[seenKey(ls, p.entry)] {
		return true
	}
	sw, entry := ls.dl.From, p.entry
	d := f.entryDelta(ls, entry, p.backup)
	v, err := f.verifier.Check(d)
	if err != nil {
		f.Verify.Errors++
		f.fallbackCommit(ls, entry, p.backup, key, "verifier error: "+err.Error())
		return true
	}
	f.Verify.Checked++
	f.Verify.AtomsChecked += uint64(v.Atoms)
	if v.Safe() {
		f.verifier.Commit(d)
		f.Verify.Committed++
		f.record(VerifyDecision{Key: key, Outcome: verifyCommitted, Frame: verify.EncodeDelta(d)})
		f.command(sw, repairCmd{Port: ls.port, Entry: entry, Backup: p.backup})
		return true
	}
	if announce {
		f.Verify.Rejected++
		f.emit(Event{Time: f.S.Now(), Kind: EventRerouteRejected, Link: ls.key, Entry: entry,
			Detail: v.String()})
	}
	for _, port := range f.repairCandidates(ls, p.backup) {
		d := f.entryDelta(ls, entry, port)
		v, err := f.verifier.Check(d)
		if err != nil {
			f.Verify.Errors++
			continue
		}
		f.Verify.Checked++
		f.Verify.AtomsChecked += uint64(v.Atoms)
		if !v.Safe() {
			continue
		}
		f.verifier.Commit(d)
		f.Verify.Repaired++
		f.record(VerifyDecision{Key: key, Outcome: verifyRepaired, Frame: verify.EncodeDelta(d)})
		f.emit(Event{Time: f.S.Now(), Kind: EventRerouteRepaired, Link: ls.key, Entry: entry,
			Detail: fmt.Sprintf("backup port %d unsafe, diverted via port %d", p.backup, port)})
		f.command(sw, repairCmd{Port: ls.port, Entry: entry, Backup: port})
		return true
	}
	if announce {
		f.Verify.Held++
		f.emit(Event{Time: f.S.Now(), Kind: EventRerouteHeld, Link: ls.key, Entry: entry,
			Detail: "no safe backup next hop; holding for retry"})
		f.verifyHeld = append(f.verifyHeld, &heldReroute{link: ls.key, key: key, entry: entry})
		f.persist()
		f.armVerifyTimer()
	}
	return false
}

// repairCandidates lists the upstream switch's other inter-switch egress
// ports — the alternate backup next hops — in neighbor-name order,
// excluding the primary egress and the already-rejected configured backup.
func (f *Fleet) repairCandidates(ls *linkState, backup int) []int {
	var out []int
	for _, nb := range f.Net.Neighbors(ls.dl.From) {
		p := f.Net.PortOf[ls.dl.From][nb]
		if p == ls.port || p == backup {
			continue
		}
		out = append(out, p)
	}
	return out
}

// fallbackCommit is the model-error path: the model cannot evaluate the
// flip (e.g. its prefix was installed after the model snapshot), so it
// commits unverified exactly as the ungated fleet would rather than block
// recovery. The model cannot hold the flip either, so it stays as it was
// and the replicated decision carries no frame.
func (f *Fleet) fallbackCommit(ls *linkState, entry netsim.EntryID, port int, key, why string) {
	f.Verify.Fallbacks++
	f.emit(Event{Time: f.S.Now(), Kind: EventVerifyFallback, Link: ls.key, Entry: entry, Detail: why})
	f.record(VerifyDecision{Key: key, Outcome: verifyFallback})
	f.command(ls.dl.From, repairCmd{Port: ls.port, Entry: entry, Backup: port})
}

// record appends one decision to the replicated log and persists: a gate
// decision is externally visible the moment its command leaves, so it must
// survive any later crash (same rationale as verdict persistence).
func (f *Fleet) record(d VerifyDecision) {
	f.verifySeen[d.Key] = d.Outcome
	f.verifyLog = append(f.verifyLog, d)
	f.persist()
}

// reissue re-sends the commanded flip of an already-decided commit (leader
// failover or duplicated evidence) from its logged frame — idempotent at
// the agent.
func (f *Fleet) reissue(ls *linkState, key string) {
	for i := len(f.verifyLog) - 1; i >= 0; i-- {
		dec := f.verifyLog[i]
		if dec.Key != key || len(dec.Frame) == 0 {
			continue
		}
		d, err := verify.DecodeDelta(dec.Frame)
		if err != nil || len(d.Flips) == 0 {
			return
		}
		fl := d.Flips[0]
		f.command(ls.dl.From, repairCmd{Port: ls.port, Entry: netsim.EntryID(fl.Addr >> 8), Backup: fl.Port})
		return
	}
}

// retryHeld re-checks every parked flip: after each committed delta or
// model sync (tick=false, no retry budget consumed) and on the holdRetry
// cadence (tick=true, budget consumed; exhaustion abandons the flip as a
// final rejection).
func (f *Fleet) retryHeld(tick bool) {
	if f.verifier == nil || len(f.verifyHeld) == 0 {
		return
	}
	keep := f.verifyHeld[:0]
	for _, h := range f.verifyHeld {
		if _, done := f.verifySeen[h.key]; done {
			continue // decided while parked (restore replay or fallback)
		}
		ls := f.links[h.link]
		i, ok := slices.BinarySearchFunc(ls.plan, h.entry, byEntry)
		if !ok {
			continue
		}
		if tick {
			h.retries++
			f.Verify.Retries++
		}
		if f.tryCommit(ls, ls.plan[i], h.key, false) {
			continue
		}
		if h.retries >= f.cfg.Verify.MaxRetries {
			f.Verify.Abandoned++
			f.emit(Event{Time: f.S.Now(), Kind: EventRerouteRejected, Link: h.link, Entry: h.entry,
				Detail: fmt.Sprintf("abandoned after %d retries; entry stays on primary", h.retries)})
			f.record(VerifyDecision{Key: h.key, Outcome: verifyRejected})
			continue
		}
		keep = append(keep, h)
	}
	f.verifyHeld = keep
}

func (f *Fleet) armVerifyTimer() {
	if f.verifyTimer.Active() || len(f.verifyHeld) == 0 || f.Crashed() {
		return
	}
	f.verifyTimer = f.S.ScheduleTimerActor(holdRetry, (*verifyRetry)(f))
}

func (f *Fleet) verifyRetryTick() {
	if f.Crashed() || f.verifier == nil {
		return
	}
	f.retryHeld(true)
	f.armVerifyTimer()
}

// syncDegradedReroute settles an agent's autonomous reroute at handback.
// Degraded-mode local protection bypasses the gate by design — the agent
// cannot reach the correlator, and protection must not wait — so the flip is
// checked when its report arrives (until then the model does not hold it).
// A safe flip is an unverified fallback, adopted into the model as made. An
// unsafe one is refused like a gate rejection: logged as rejected, so a
// takeover meets the refusal again, and the agent is commanded back to its
// primary next hop. seen is the report's rerouteSeen key.
func (f *Fleet) syncDegradedReroute(ls *linkState, r rerouteReport, seen string) {
	key := "degraded|" + seen
	out, decided := f.verifySeen[key]
	if decided && out != verifyRejected {
		return
	}
	sw := ls.dl.From
	if !decided {
		d := verify.NewDelta(ls.key, []verify.Flip{verify.EntryFlip(sw, r.Entry, r.Egress)})
		v, err := f.verifier.Check(d)
		if err != nil {
			f.Verify.Errors++
			return
		}
		if v.Safe() {
			f.verifier.Commit(d)
			f.Verify.Fallbacks++
			f.emit(Event{Time: f.S.Now(), Kind: EventVerifyFallback, Link: ls.key, Entry: r.Entry,
				Detail: "degraded-local reroute adopted unverified"})
			f.record(VerifyDecision{Key: key, Outcome: verifyFallback, Frame: verify.EncodeDelta(d)})
			f.retryHeld(false)
			return
		}
		f.Verify.Rejected++
		f.emit(Event{Time: f.S.Now(), Kind: EventRerouteRejected, Link: ls.key, Entry: r.Entry,
			Detail: "degraded-local reroute: " + v.String()})
	}
	// Refused now or before (the agent repeated the flip in a later degraded
	// spell). The model goes back to the primary too, in case it holds a
	// gated flip the agent's own flip overtook. Back on its primary, the
	// entry's next flip is a new reroute.
	d := verify.NewDelta(ls.key, []verify.Flip{verify.EntryFlip(sw, r.Entry, ls.port)})
	f.verifier.Commit(d)
	delete(f.rerouteSeen, seen)
	f.record(VerifyDecision{Key: key, Outcome: verifyRejected, Frame: verify.EncodeDelta(d)})
	f.command(sw, restoreCmd{Port: r.Port, Entry: r.Entry})
}

// RestoreEntry reverts a protected entry to its primary next hop at sw —
// the operator action after the underlying failure is repaired. It acts on
// the switch, and tells the correlator: the entry is no longer reported
// diverted, so its next flip is a new reroute. With the gate enabled the
// model reverts too (as a logged decision, so a restored correlator replays
// it), the entry's old gate decision is revoked — the rollback reopens
// gating, and a stale accepted decision must not be re-issued against the
// rolled-back state — and held commits re-check immediately: a conflicting
// reroute being rolled back is exactly what unblocks a held flip.
func (f *Fleet) RestoreEntry(sw string, entry netsim.EntryID) {
	a, ok := f.agents[sw]
	if !ok {
		return
	}
	var ports []int
	for port, app := range a.apps {
		if app.Rerouted(entry) {
			ports = append(ports, port)
		}
	}
	sort.Ints(ports)
	for _, port := range ports {
		a.apps[port].Restore(entry)
		ls := f.portLink[sw][port]
		delete(f.rerouteSeen, seenKey(ls, entry))
		f.persist()
		if f.verifier == nil {
			continue
		}
		d := verify.NewDelta(ls.key, []verify.Flip{verify.EntryFlip(sw, entry, ls.port)})
		if err := f.verifier.Commit(d); err != nil {
			f.Verify.Errors++
			continue
		}
		// Revoke the rolled-back decision in the log itself (not just the
		// index): a restored correlator rebuilds verifySeen from the log,
		// so a plain delete would resurrect the stale decision — and its
		// re-issue would diverge model and network. The frames stay: replay
		// applies the old flip, then this tombstone's revert, landing on
		// the true state.
		k := verifyKey(ls, entry)
		if _, done := f.verifySeen[k]; done {
			f.verifySeen[k] = verifyRevoked
			for i := range f.verifyLog {
				if f.verifyLog[i].Key == k {
					f.verifyLog[i].Outcome = verifyRevoked
				}
			}
		}
		f.record(VerifyDecision{
			Key:     fmt.Sprintf("restore|%s|%d|%d|%d", sw, port, entry, int64(f.S.Now())),
			Outcome: verifyCommitted,
			Frame:   verify.EncodeDelta(d),
		})
	}
	if f.verifier != nil {
		// Holds at the restored switch are cancelled — the operator just
		// reverted this entry; new evidence will re-open gating if the
		// failure persists. Holds elsewhere re-check: the rollback may be
		// exactly what makes them safe.
		keep := f.verifyHeld[:0]
		for _, h := range f.verifyHeld {
			if f.links[h.link].dl.From == sw && h.entry == entry {
				continue
			}
			keep = append(keep, h)
		}
		f.verifyHeld = keep
		f.retryHeld(false)
	}
}
