package fleet

// Correlator checkpoint/restart. The correlator encodes its durable state
// (state.go: evidence windows, verdicts, health bookkeeping) into a byte
// frame, periodically and on every durable change, and the frame becomes
// the active replica's accepted entry (consensus.go: commit); crashing the
// active replica (consensus.go: CrashReplica) abandons the live state (and
// stops its management server from acknowledging anything, so agents
// observe the crash as a partition and fall back to degraded-mode local
// protection); restarting it with no successor elected — always, in a group
// of one — decodes that entry's frame back into the live state and
// reconciles with live telemetry: pending evidence windows re-open with a
// fresh full window, restart counters are re-read, and the transport-level
// sequence state plus the fleet-level alarm and reroute dedup maps
// guarantee no duplicate confirmed verdicts and no duplicate reroute
// accounting, while confirmed verdicts survive verbatim.

import (
	"fmt"
	"maps"
	"slices"

	"fancy/internal/codec"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// checkpoint encodes the live durable state into a fresh frame. It is the
// one place a frame is built: log entries and every datagram that carries
// one hold or copy these bytes, never the state.
func (f *Fleet) checkpoint() []byte {
	f.savedAt = f.S.Now()
	r := f.active()
	if r.srv != nil {
		f.seq = r.srv.SeqCheckpoint(f.seq)
	}
	// Consecutive frames differ by an alarm or a timestamp: the previous
	// length plus slack sizes the buffer in one allocation.
	w := codec.Writer{B: make([]byte, 0, len(r.frame())+256)}
	f.corrState.encode(&w, &f.ckptKeys)
	f.Corr.Checkpoints++
	return w.B
}

func (f *Fleet) periodicCheckpoint() {
	if !f.Crashed() {
		f.persist()
	}
	f.ckptTimer = f.S.ScheduleTimerActor(checkpointInterval, (*checkpointTick)(f))
}

// persist makes the current state durable at once: a commit with no effects
// attached. Besides the periodic cadence, the correlator persists on every
// durable state change (alarm accepted into an evidence window, verdict,
// epoch purge, reroute recorded): the transport acknowledges a report the
// moment it is consumed, so anything consumed but not checkpointed would be
// lost for good in a crash — the client never retransmits an acknowledged
// report, and a degraded-mode reroute may have removed the failure symptom
// that would otherwise re-alarm. With peers the frame is also a log entry,
// so followers track every durable state change, not just verdicts.
func (f *Fleet) persist() { f.commit("window", func() {}) }

// haltDuty stops every timer the current correlator incarnation owns:
// pending verdict windows, the liveness sweep and the checkpoint cadence.
// Used on crash and on leader takeover (the deposed incarnation's timers
// must not fire into the new one's state).
func (f *Fleet) haltDuty() {
	for _, key := range f.order {
		ls := f.links[key]
		ls.verdictTimer.Stop()
	}
	f.sweepTimer.Stop()
	f.ckptTimer.Stop()
	f.verifyTimer.Stop()
}

// resumeDuty reconciles with live telemetry and restarts the periodic
// duties after a restore: every switch's restart counter is re-read so a
// reboot during the outage suppresses cross-epoch evidence instead of
// producing a wrong verdict, then the sweep and checkpoint cadences resume.
func (f *Fleet) resumeDuty() {
	for _, sw := range f.switches {
		f.refreshRestarts(sw, nil)
	}
	f.sweepTimer = f.S.ScheduleTimerActor(sweepInterval, (*sweepTick)(f))
	f.ckptTimer = f.S.ScheduleTimerActor(checkpointInterval, (*checkpointTick)(f))
}

// restoreState replaces the correlator's durable state with the one frame
// decodes to (nil restores from scratch) and re-arms everything that hangs
// off it: evidence windows that were pending re-open with a fresh full
// window, the verifier model is put back on the protection plan and the
// decision log replayed, and the management server resumes accepting with
// the frame's sequence state.
// Restart and takeover are both this; confirmed verdicts and the
// alarm/reroute dedup maps come back verbatim because they are in the frame.
// Returns a human-readable restore summary.
func (f *Fleet) restoreState(frame []byte) string {
	// The live link objects stay (timers, guards and closures point at
	// them); each takes over its record from the frame, decoded in place.
	st := &corrState{links: f.links}
	for _, ls := range f.links {
		ls.linkRecord, ls.verdictTimer = linkRecord{}, sim.Timer{}
	}
	if frame != nil {
		if err := decodeState(frame, st); err != nil {
			// Only frames this process encoded, or a replica validated on
			// receipt, ever get here.
			panic("fleet: restoring a frame that does not decode: " + err.Error())
		}
	}
	// Records of links this topology does not have end here: the decoder
	// made a link of no fleet for each. Holds on them go with them below.
	maps.DeleteFunc(f.links, func(_ string, ls *linkState) bool { return ls.f == nil })
	// Re-opened verdict windows are scheduled here, so the links must be
	// visited in a fixed order to keep event sequence numbers (and
	// therefore same-tick execution order) reproducible.
	restored := 0
	for _, key := range f.order {
		ls := f.links[key]
		if ls.verdictPending {
			// Re-open the window in full: the crashed incarnation's
			// partial wait cannot be trusted, and a fresh window gives
			// retransmitted evidence time to land before the verdict.
			ls.verdictTimer = f.S.ScheduleTimerActor(f.cfg.Window, (*verdictDue)(ls))
			restored++
		}
	}
	// Every live hold names a live link.
	st.verifyHeld = slices.DeleteFunc(st.verifyHeld, func(h *heldReroute) bool { return f.links[h.link] == nil })
	f.corrState = *st
	f.corrState.alloc()
	f.aliveSeen = make(map[string]bool)

	if f.verifier != nil {
		// The trial's one model, put back on the plan (as it was built)
		// with the decision log replayed on top: it holds the flips this
		// correlator decided or was told of, whether or not their command
		// arrived, and none a switch made unreported. A rejection has no
		// frame unless it rolled a degraded flip back, and then its frame
		// is that rollback.
		f.replan()
		f.verifySeen = make(map[string]uint8)
		for _, d := range f.verifyLog {
			f.verifySeen[d.Key] = d.Outcome
			if len(d.Frame) == 0 {
				continue
			}
			if dd, err := verify.DecodeDelta(d.Frame); err == nil {
				f.verifier.Commit(dd)
			}
		}
	}

	f.Corr.Restores++
	f.armVerifyTimer()
	if srv := f.active().srv; srv != nil {
		srv.SetAccepting(true)
		if frame != nil {
			srv.RestoreSeq(f.seq)
		}
	}
	if frame == nil {
		return "from scratch (no checkpoint)"
	}
	return fmt.Sprintf("checkpoint at %v, %d pending window(s) re-opened", f.savedAt, restored)
}

// replan puts every planned entry back on its primary in one delta, or flip
// by flip if the model never knew a prefix (the model-error fallback).
func (f *Fleet) replan() {
	var flips []verify.Flip
	for _, key := range f.order {
		ls := f.links[key]
		for _, p := range ls.plan {
			flips = append(flips, verify.EntryFlip(ls.dl.From, p.entry, ls.port))
		}
	}
	d := verify.NewDelta("plan", flips)
	if f.verifier.Commit(d) == nil {
		return
	}
	for _, fl := range d.Flips {
		f.verifier.Commit(verify.NewDelta("plan", []verify.Flip{fl}))
	}
}

// Crashed reports whether the correlator is currently down: whether the
// replica driving the fleet is.
func (f *Fleet) Crashed() bool { return f.active().crashed }
