package fleet

// Correlator checkpoint/restart. The correlator periodically snapshots its
// evidence windows, verdicts and health bookkeeping; CrashCorrelator wipes
// the live state (and stops the management server from acknowledging
// anything, so agents observe the crash as a partition and fall back to
// degraded-mode local protection); RestartCorrelator rebuilds from the last
// checkpoint and reconciles with live telemetry — pending evidence windows
// re-open with a fresh full window, restart counters are re-read, and the
// transport-level sequence state plus the fleet-level alarm and reroute
// dedup maps guarantee no duplicate confirmed verdicts and no duplicate
// reroute accounting, while confirmed verdicts survive verbatim.

import (
	"fmt"
	"sort"

	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// LinkCheckpoint is one directed link's persisted correlator record.
type LinkCheckpoint struct {
	Localized   bool
	LocalizedAt sim.Time
	Affected    []netsim.EntryID
	TreePaths   int
	Alarms      int
	Suppressed  int
	Flapping    bool
	DownTimes   []sim.Time

	VerdictPending bool
	IncidentStart  sim.Time
	Seen           []string
	Evidence       []fancy.Event

	LastHealth Health
}

// Checkpoint is a full correlator snapshot, sufficient to restart from.
type Checkpoint struct {
	Time sim.Time

	Alarms        int
	Suppressed    int
	Localizations int
	Reroutes      int

	Links map[string]LinkCheckpoint

	RestartsSeen    map[string]int
	RestartObserved map[string]sim.Time
	EpochCur        map[string]uint8
	EpochPrev       map[string]uint8
	RerouteSeen     []string

	// Seq is the management server's per-client sequencing state, so a
	// restarted correlator keeps deduplicating reports the crashed
	// incarnation already consumed.
	Seq map[string]mgmt.SeqState

	// VerifyLog and VerifyHeld persist the verified-commit gate: decided
	// commits (with their committed delta frames, replayed into a fresh
	// model on restore) and flips parked on the hold-and-retry list. Empty
	// without Config.Verify.
	VerifyLog  []VerifyDecision
	VerifyHeld []HeldReroute
}

// Checkpoint deep-copies the correlator's current state.
func (f *Fleet) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Time:            f.S.Now(),
		Alarms:          f.Alarms,
		Suppressed:      f.Suppressed,
		Localizations:   f.Localizations,
		Reroutes:        f.Reroutes,
		Links:           make(map[string]LinkCheckpoint, len(f.links)),
		RestartsSeen:    make(map[string]int, len(f.restartsSeen)),
		RestartObserved: make(map[string]sim.Time, len(f.restartObserved)),
		EpochCur:        make(map[string]uint8, len(f.epochCur)),
		EpochPrev:       make(map[string]uint8, len(f.epochPrev)),
	}
	for _, key := range f.order {
		ls := f.links[key]
		lc := LinkCheckpoint{
			Localized:      ls.localized,
			LocalizedAt:    ls.localizedAt,
			TreePaths:      ls.treePaths,
			Alarms:         ls.alarms,
			Suppressed:     ls.suppressed,
			Flapping:       ls.flapping,
			DownTimes:      append([]sim.Time(nil), ls.downTimes...),
			VerdictPending: ls.verdictPending,
			IncidentStart:  ls.incidentStart,
			Evidence:       append([]fancy.Event(nil), ls.evidence...),
			LastHealth:     ls.lastHealth,
		}
		for e := range ls.affected {
			lc.Affected = append(lc.Affected, e)
		}
		sort.Slice(lc.Affected, func(i, j int) bool { return lc.Affected[i] < lc.Affected[j] })
		for k := range ls.seen {
			lc.Seen = append(lc.Seen, k)
		}
		sort.Strings(lc.Seen)
		cp.Links[key] = lc
	}
	for sw, r := range f.restartsSeen {
		cp.RestartsSeen[sw] = r
	}
	for sw, t := range f.restartObserved {
		cp.RestartObserved[sw] = t
	}
	for sw, e := range f.epochCur {
		cp.EpochCur[sw] = e
	}
	for sw, e := range f.epochPrev {
		cp.EpochPrev[sw] = e
	}
	for k := range f.rerouteSeen {
		cp.RerouteSeen = append(cp.RerouteSeen, k)
	}
	sort.Strings(cp.RerouteSeen)
	if f.mgmtSrv != nil {
		cp.Seq = f.mgmtSrv.SeqCheckpoint()
	}
	for _, d := range f.verifyLog {
		cp.VerifyLog = append(cp.VerifyLog, VerifyDecision{
			Key: d.Key, Outcome: d.Outcome, Frame: append([]byte(nil), d.Frame...),
		})
	}
	for _, h := range f.verifyHeld {
		cp.VerifyHeld = append(cp.VerifyHeld, HeldReroute{
			LinkKey: h.ls.key, Key: h.key, Entry: h.entry, Retries: h.retries,
		})
	}
	return cp
}

func (f *Fleet) periodicCheckpoint() {
	if !f.crashed {
		f.persist()
	}
	f.ckptTimer = f.S.Schedule(f.cfg.CheckpointInterval, f.periodicCheckpoint)
}

// persist takes a checkpoint immediately. Besides the periodic cadence, the
// correlator persists on every durable state change (alarm accepted into an
// evidence window, verdict, epoch purge, reroute recorded): the transport
// acknowledges a report the moment it is consumed, so anything consumed but
// not checkpointed would be lost for good in a crash — the client never
// retransmits an acknowledged report, and a degraded-mode reroute may have
// removed the failure symptom that would otherwise re-alarm.
func (f *Fleet) persist() {
	if f.cfg.CheckpointInterval < 0 {
		return
	}
	f.lastCkpt = f.Checkpoint()
	f.Corr.Checkpoints++
	if f.replicating() {
		// Replicated mode: a persisted checkpoint is also a log entry, so
		// followers track every durable state change, not just verdicts.
		f.group.replicate(f.lastCkpt, "window", nil)
	}
}

// LastCheckpoint returns the most recent periodic checkpoint (nil before
// the first checkpoint interval elapses).
func (f *Fleet) LastCheckpoint() *Checkpoint { return f.lastCkpt }

// CrashCorrelator fails the central correlator: all in-memory state since
// the last checkpoint is lost, every pending timer and in-flight read is
// abandoned, and — over a management network — inbound reports go
// unacknowledged, so switch agents observe the crash exactly like a
// partition and engage degraded-mode local protection. Detectors and
// agents keep running throughout.
func (f *Fleet) CrashCorrelator() {
	if f.group != nil {
		f.CrashReplica(f.group.active)
		return
	}
	if f.crashed {
		return
	}
	f.crashed = true
	f.corrGen++
	f.Corr.Crashes++
	if f.mgmtSrv != nil {
		f.mgmtSrv.SetAccepting(false)
	}
	f.haltDuty()
	f.emit(Event{Time: f.S.Now(), Kind: EventCorrelatorCrash, Link: correlatorEndpoint,
		Entry: netsim.InvalidEntry})
}

// haltDuty stops every timer the current correlator incarnation owns:
// pending verdict windows, the liveness sweep and the checkpoint cadence.
// Used on crash and on leader takeover (the deposed incarnation's timers
// must not fire into the new one's state).
func (f *Fleet) haltDuty() {
	for _, key := range f.order {
		ls := f.links[key]
		if ls.verdictTimer != nil {
			ls.verdictTimer.Stop()
		}
	}
	if f.sweepTimer != nil {
		f.sweepTimer.Stop()
	}
	if f.ckptTimer != nil {
		f.ckptTimer.Stop()
	}
	if f.verifyTimer != nil {
		f.verifyTimer.Stop()
		f.verifyTimer = nil
	}
}

// resumeDuty reconciles with live telemetry and restarts the periodic
// duties after a restore: every switch's restart counter is re-read so a
// reboot during the outage suppresses cross-epoch evidence instead of
// producing a wrong verdict, then the sweep and checkpoint cadences resume.
func (f *Fleet) resumeDuty() {
	for _, sw := range f.switches {
		f.refreshRestarts(sw, nil)
	}
	f.sweepTimer = f.S.Schedule(sweepInterval, f.sweep)
	if f.cfg.CheckpointInterval > 0 {
		f.ckptTimer = f.S.Schedule(f.cfg.CheckpointInterval, f.periodicCheckpoint)
	}
}

// RestartCorrelator brings the correlator back from its last periodic
// checkpoint (or from scratch if none was taken) and reconciles with live
// telemetry: confirmed verdicts and the alarm/reroute dedup maps are
// restored, evidence windows that were pending at the crash re-open with a
// fresh full window, the management server resumes accepting with the
// checkpointed sequence state, and every switch's restart counter is
// re-read so reboots during the outage are not misdiagnosed.
func (f *Fleet) RestartCorrelator() {
	if f.group != nil {
		if f.group.lastCrashed >= 0 {
			f.RestartReplica(f.group.lastCrashed)
		}
		return
	}
	if !f.crashed {
		return
	}
	now := f.S.Now()
	detail := f.restoreState(f.lastCkpt)
	f.emit(Event{Time: now, Kind: EventCorrelatorRestart, Link: correlatorEndpoint,
		Entry: netsim.InvalidEntry, Detail: detail})
	f.resumeDuty()
}

// restoreState wipes the correlator state machine and overlays cp (nil
// restores from scratch): confirmed verdicts and the alarm/reroute dedup
// maps come back verbatim, evidence windows that were pending re-open with
// a fresh full window, and the management server resumes accepting with the
// checkpointed sequence state. Returns a human-readable restore summary.
func (f *Fleet) restoreState(cp *Checkpoint) string {
	// Wipe to zero state, then overlay the checkpoint.
	f.Alarms, f.Suppressed, f.Localizations, f.Reroutes = 0, 0, 0, 0
	f.restartsSeen = make(map[string]int)
	f.restartObserved = make(map[string]sim.Time)
	f.epochCur = make(map[string]uint8)
	f.epochPrev = make(map[string]uint8)
	f.rerouteSeen = make(map[string]bool)
	f.aliveSeen = make(map[string]bool)
	for _, key := range f.order {
		ls := f.links[key]
		*ls = linkState{
			dl: ls.dl, key: ls.key, port: ls.port, guard: ls.guard,
			seen:     make(map[string]bool),
			affected: make(map[netsim.EntryID]bool),
		}
	}
	if f.verifier != nil {
		// A fresh model snapshot of the live tables, with the checkpointed
		// decision log replayed on top: flips already applied at the agents
		// are in the snapshot (replay is then idempotent), and flips whose
		// command was lost in flight stay committed in the model, exactly as
		// the deposed incarnation decided them.
		f.verifier = verify.NewModel(f.Net)
		f.verifySeen = make(map[string]uint8)
		f.verifyLog = nil
		f.verifyHeld = nil
	}

	restored := 0
	if cp != nil {
		f.Alarms, f.Suppressed = cp.Alarms, cp.Suppressed
		f.Localizations, f.Reroutes = cp.Localizations, cp.Reroutes
		for sw, r := range cp.RestartsSeen {
			f.restartsSeen[sw] = r
		}
		for sw, t := range cp.RestartObserved {
			f.restartObserved[sw] = t
		}
		for sw, e := range cp.EpochCur {
			f.epochCur[sw] = e
		}
		for sw, e := range cp.EpochPrev {
			f.epochPrev[sw] = e
		}
		for _, k := range cp.RerouteSeen {
			f.rerouteSeen[k] = true
		}
		// Re-opened verdict windows are scheduled below, so the links must
		// be visited in a fixed order to keep event sequence numbers (and
		// therefore same-tick execution order) reproducible.
		linkKeys := make([]string, 0, len(cp.Links))
		for key := range cp.Links {
			linkKeys = append(linkKeys, key)
		}
		sort.Strings(linkKeys)
		for _, key := range linkKeys {
			lc := cp.Links[key]
			ls, ok := f.links[key]
			if !ok {
				continue
			}
			ls.localized = lc.Localized
			ls.localizedAt = lc.LocalizedAt
			ls.treePaths = lc.TreePaths
			ls.alarms = lc.Alarms
			ls.suppressed = lc.Suppressed
			ls.flapping = lc.Flapping
			ls.downTimes = append([]sim.Time(nil), lc.DownTimes...)
			ls.incidentStart = lc.IncidentStart
			ls.evidence = append([]fancy.Event(nil), lc.Evidence...)
			ls.lastHealth = lc.LastHealth
			for _, e := range lc.Affected {
				ls.affected[e] = true
			}
			for _, k := range lc.Seen {
				ls.seen[k] = true
			}
			if lc.VerdictPending {
				// Re-open the window in full: the crashed incarnation's
				// partial wait cannot be trusted, and a fresh window gives
				// retransmitted evidence time to land before the verdict.
				ls.verdictPending = true
				ls.verdictTimer = f.S.Schedule(f.cfg.Window, func() { f.verdict(ls) })
				restored++
			}
		}
		if f.verifier != nil {
			for _, d := range cp.VerifyLog {
				d.Frame = append([]byte(nil), d.Frame...)
				f.verifyLog = append(f.verifyLog, d)
				f.verifySeen[d.Key] = d.Outcome
				if len(d.Frame) == 0 || d.Outcome == verifyRejected {
					continue
				}
				if dd, err := verify.DecodeDelta(d.Frame); err == nil {
					f.verifier.Commit(dd)
				}
			}
			for _, h := range cp.VerifyHeld {
				if ls, ok := f.links[h.LinkKey]; ok {
					f.verifyHeld = append(f.verifyHeld,
						&heldReroute{ls: ls, key: h.Key, entry: h.Entry, retries: h.Retries})
				}
			}
		}
	}

	f.crashed = false
	f.Corr.Restores++
	f.armVerifyTimer()
	if f.mgmtSrv != nil {
		f.mgmtSrv.SetAccepting(true)
		if cp != nil && cp.Seq != nil {
			f.mgmtSrv.RestoreSeq(cp.Seq)
		}
	}
	if cp == nil {
		return "from scratch (no checkpoint)"
	}
	return fmt.Sprintf("checkpoint at %v, %d pending window(s) re-opened", cp.Time, restored)
}

// Crashed reports whether the correlator is currently down.
func (f *Fleet) Crashed() bool { return f.crashed }
