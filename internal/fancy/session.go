package fancy

// This file implements the counting protocol's finite state machines
// (Figures 3 and 4 of the paper). One sender FSM runs at the upstream
// switch and one receiver FSM at the downstream switch for every monitored
// unit: each dedicated entry is a unit, and the hash-based tree is one more
// unit — matching the per-port sub-state-machines of the Tofino
// implementation (Appendix B.2).
//
// The protocol is stop-and-wait: Start/StartACK opens a session,
// Stop/Report closes it, and the upstream retransmits unanswered control
// messages every Trtx, reporting a link failure after MaxAttempts. Counting
// pauses while control messages are in flight — the deliberate accuracy/
// memory trade-off of §4.1.

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// senderState enumerates the sender FSM states of Figure 3 (left).
type senderState uint8

const (
	sIdle         senderState = iota
	sWaitStartACK             // Start sent, waiting for Start ACK
	sCounting                 // tagging and counting packets
	sWaitReport               // Stop sent, waiting for Report
)

// senderCounters abstracts a unit's counting machinery on the sender side: a
// dedicated counter, a pipelined or staged tree, or a custom unit.
type senderCounters interface {
	// resetSession zeroes the counters for a new session and appends to
	// dst the zoom targets to advertise in the Start message (none for
	// dedicated). A target's path stays valid until the next report.
	resetSession(dst []wire.ZoomTarget) []wire.ZoomTarget
	// tagPacket counts a packet offered to this unit and returns its
	// wire tag. ok=false means the packet is not counted this session
	// (a staged tree's zoom stages only count matching packets; a custom
	// unit picks the packets it analyzes).
	tagPacket(pkt *netsim.Packet) (tag wire.Tag, ok bool)
	// handleReport compares the downstream counters against the local
	// ones, raising events through the detector.
	handleReport(counters []uint64)
}

// senderFSM drives one unit's counting sessions from the upstream switch.
type senderFSM struct {
	det      *Detector
	port     int
	kind     wire.SessionKind
	unit     uint16
	interval sim.Time
	counters senderCounters

	state    senderState
	session  uint32
	attempts int
	rtx      sim.Timer
	sessEnd  sim.Timer

	lastTargets []wire.ZoomTarget
	linkDown    bool
	// backoff is the current probe interval of the degraded state entered
	// after link-down (doubles per probe up to DefaultMaxProbeInterval).
	backoff sim.Time
	// dead marks an FSM retired by Detector.Restart; its pending timers may
	// still fire and must become no-ops.
	dead bool

	// SessionsCompleted counts fully closed sessions, for tests.
	SessionsCompleted uint64
}

// sessionOpen, rtxFire and countingEnd are the senderFSM as the sim.Actor
// of its session start, retransmission and counting-end timers, and
// reportWait the receiverFSM as that of its Twait timer: a timer armed with
// a converted pointer allocates nothing.
type (
	sessionOpen senderFSM
	rtxFire     senderFSM
	countingEnd senderFSM
	reportWait  receiverFSM
)

func (f *sessionOpen) Fire() { (*senderFSM)(f).startSession() }
func (f *rtxFire) Fire()     { (*senderFSM)(f).onRtx() }
func (f *countingEnd) Fire() { (*senderFSM)(f).endCounting() }
func (f *reportWait) Fire()  { (*receiverFSM)(f).sendReport() }

func (f *senderFSM) startSession() {
	if f.dead {
		return
	}
	f.session++
	f.attempts = 0
	f.lastTargets = f.counters.resetSession(f.lastTargets[:0])
	f.state = sWaitStartACK
	f.sendStart()
	f.armRtx()
}

// kill retires the FSM (device restart): stop its timers and neuter any
// already-scheduled callbacks.
func (f *senderFSM) kill() {
	f.dead = true
	f.state = sIdle
	f.rtx.Stop()
	f.sessEnd.Stop()
}

func (f *senderFSM) sendStart() {
	f.det.sendControl(f.port, &wire.Message{
		Header:  wire.Header{Type: wire.MsgStart, Kind: f.kind, Epoch: f.det.epoch, Session: f.session, Link: uint16(f.port), Unit: f.unit},
		Targets: f.lastTargets,
	})
}

func (f *senderFSM) sendStop() {
	f.det.sendControl(f.port, &wire.Message{
		Header: wire.Header{Type: wire.MsgStop, Kind: f.kind, Epoch: f.det.epoch, Session: f.session, Link: uint16(f.port), Unit: f.unit},
	})
}

func (f *senderFSM) armRtx() {
	f.rtx.Stop()
	f.rtx = f.det.s.ScheduleTimerActor(DefaultTrtx, (*rtxFire)(f))
}

func (f *senderFSM) onRtx() {
	if f.dead {
		return
	}
	f.attempts++
	f.det.stats.Retransmits++
	if f.attempts >= DefaultMaxAttempts {
		if !f.linkDown {
			f.linkDown = true
			f.det.reportLinkDown(f.port)
			// Degrade to probing: abandon the stalled session and solicit
			// the peer with a fresh Start at exponentially backed-off
			// intervals. Counting resumes automatically the moment an ACK
			// comes back (see onControl), so flap heal and peer restart
			// both recover without operator action.
			f.backoff = DefaultTrtx
			f.session++
			f.lastTargets = f.counters.resetSession(f.lastTargets[:0])
			f.state = sWaitStartACK
		}
		f.backoff *= 2
		if f.backoff > DefaultMaxProbeInterval {
			f.backoff = DefaultMaxProbeInterval
		}
		f.sendStart()
		f.rtx.Stop()
		f.rtx = f.det.s.ScheduleTimerActor(f.backoff, (*rtxFire)(f))
		return
	}
	switch f.state {
	case sWaitStartACK:
		f.sendStart()
	case sWaitReport:
		f.sendStop()
	default:
		return // stale timer
	}
	f.armRtx()
}

// recover leaves the degraded probe state when the peer answers again.
func (f *senderFSM) recover() {
	if f.linkDown {
		f.linkDown = false
		f.backoff = 0
		f.det.reportLinkUp(f.port)
	}
}

// onControl handles StartACK and Report messages from the downstream.
func (f *senderFSM) onControl(m *wire.Message) {
	if f.dead || m.Session != f.session || m.Kind != f.kind {
		return // stale, duplicated or misaddressed response
	}
	if m.Epoch != f.det.epoch {
		// Response from a previous incarnation of this detector (it
		// restarted since the session opened) — the counters it refers to
		// are gone. Ignore; the new epoch's sessions stand on their own.
		return
	}
	switch m.Type {
	case wire.MsgStartACK:
		if f.state != sWaitStartACK {
			return
		}
		f.rtx.Stop()
		f.recover()
		f.attempts = 0
		f.state = sCounting
		f.sessEnd = f.det.s.ScheduleTimerActor(f.interval, (*countingEnd)(f))
	case wire.MsgReport:
		if f.state != sWaitReport {
			return
		}
		f.rtx.Stop()
		f.recover()
		f.state = sIdle
		f.SessionsCompleted++
		f.counters.handleReport(m.Counters)
		// "opening a new session as soon as the previous one is closed".
		f.startSession()
	}
}

func (f *senderFSM) endCounting() {
	if f.dead || f.state != sCounting {
		return
	}
	f.state = sWaitReport
	f.attempts = 0
	f.sendStop()
	f.armRtx()
}

// onEgress counts and tags a data packet if this unit is in Counting state,
// reporting whether the unit claimed (tagged) it.
func (f *senderFSM) onEgress(pkt *netsim.Packet) bool {
	if f.state != sCounting {
		return false
	}
	tag, ok := f.counters.tagPacket(pkt)
	if !ok {
		return false
	}
	pkt.Tagged = true
	pkt.Tag = tag
	pkt.TagKind = f.kind
	pkt.Size += wire.TagSize
	return true
}

// receiverState enumerates the receiver FSM states of Figure 3 (right).
type receiverState uint8

const (
	rIdle       receiverState = iota
	rCounting                 // Start ACKed; counting tagged packets
	rWaitToSend               // Stop received; grace period Twait running
)

// receiverCounters abstracts the downstream counting machinery.
type receiverCounters interface {
	// resetSession zeroes counters and adopts the zoom targets advertised
	// in the Start message.
	resetSession(targets []wire.ZoomTarget)
	// countTag increments the counter a tagged packet maps to.
	countTag(tag wire.Tag)
	// appendSnapshot appends the Report payload to dst.
	appendSnapshot(dst []uint64) []uint64
}

// receiverFSM runs at the downstream switch for one unit.
type receiverFSM struct {
	det      *Detector
	port     int // our ingress port for this link
	kind     wire.SessionKind
	unit     uint16
	counters receiverCounters

	state      receiverState
	session    uint32
	epoch      uint8 // adopted from the upstream's Start, echoed back
	haveSess   bool
	tagged     uint64 // tagged packets counted this session
	lastReport []uint64
	twait      sim.Timer
	dead       bool
}

// kill retires the FSM (device restart).
func (f *receiverFSM) kill() {
	f.dead = true
	f.state = rIdle
	f.twait.Stop()
}

// onControl handles Start and Stop from the upstream.
func (f *receiverFSM) onControl(m *wire.Message) {
	if f.dead || m.Kind != f.kind {
		return
	}
	switch m.Type {
	case wire.MsgStart:
		if f.haveSess && m.Session == f.session && m.Epoch == f.epoch {
			// Retransmitted or duplicated Start. If our ACK was lost the
			// sender never started counting and no tagged packet can have
			// arrived, so resetting again is harmless. But if we HAVE
			// counted packets, an ACK clearly got through and this copy is
			// a network duplicate (or a reordered straggler): resetting now
			// would discard live counts and fabricate a mismatch at session
			// close. Either way, only re-ACK once counting has begun.
			if f.tagged == 0 && f.state == rCounting {
				f.counters.resetSession(m.Targets)
			}
			f.sendAck()
			return
		}
		// New session — or the same session number under a different epoch,
		// meaning the upstream rebooted and restarted numbering: adopt its
		// epoch and resynchronize on this Start.
		f.session = m.Session
		f.epoch = m.Epoch
		f.haveSess = true
		f.twait.Stop()
		f.tagged = 0
		f.counters.resetSession(m.Targets)
		f.state = rCounting
		f.sendAck()
	case wire.MsgStop:
		if !f.haveSess || m.Session != f.session || m.Epoch != f.epoch {
			return
		}
		switch f.state {
		case rCounting:
			// Keep counting for Twait to absorb delayed or reordered
			// tagged packets (the WaitToSendCounter state of §4.1).
			f.state = rWaitToSend
			f.twait = f.det.s.ScheduleTimerActor(DefaultTwait, (*reportWait)(f))
		case rIdle:
			// Retransmitted Stop: our Report was lost; resend it.
			f.resendReport()
		case rWaitToSend:
			// Report is already pending; ignore.
		}
	}
}

func (f *receiverFSM) sendAck() {
	f.det.sendControl(f.port, &wire.Message{
		Header: wire.Header{Type: wire.MsgStartACK, Kind: f.kind, Epoch: f.epoch, Session: f.session, Link: uint16(f.port), Unit: f.unit},
	})
}

func (f *receiverFSM) sendReport() {
	if f.dead {
		return
	}
	f.state = rIdle
	f.lastReport = f.counters.appendSnapshot(f.lastReport[:0])
	f.resendReport()
}

func (f *receiverFSM) resendReport() {
	f.det.sendControl(f.port, &wire.Message{
		Header:   wire.Header{Type: wire.MsgReport, Kind: f.kind, Epoch: f.epoch, Session: f.session, Link: uint16(f.port), Unit: f.unit},
		Counters: f.lastReport,
	})
}

// onIngress counts a tagged packet while the session is open.
func (f *receiverFSM) onIngress(pkt *netsim.Packet) {
	if f.dead {
		return
	}
	if f.state == rCounting || f.state == rWaitToSend {
		f.tagged++
		f.counters.countTag(pkt.Tag)
	}
}
