package fancy

// White-box tests of the sender/receiver FSM transition edge cases:
// out-of-order, duplicated and stale control messages must never corrupt a
// session, and every lost-message recovery path must terminate.

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// fsmHarness exposes one dedicated sender FSM and the detector around it.
// The switch's monitored port is unattached, so control messages go
// nowhere — exactly what these tests want: full manual control.
type fsmHarness struct {
	s   *sim.Sim
	det *Detector
	fsm *senderFSM
}

func newFSMHarness(t *testing.T) *fsmHarness {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw", 2)
	det, err := NewDetector(s, sw, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	det.MonitorPort(1)
	s.Run(10 * sim.Millisecond) // let startSession fire
	return &fsmHarness{s: s, det: det, fsm: det.monitors[1].dedicated[0]}
}

func (h *fsmHarness) msg(typ wire.MsgType, session uint32) *wire.Message {
	return &wire.Message{Header: wire.Header{
		Type: typ, Kind: wire.KindDedicated, Epoch: h.det.epoch,
		Session: session, Link: 1, Unit: 0,
	}}
}

func TestFSMStartACKAdvancesToCounting(t *testing.T) {
	h := newFSMHarness(t)
	if h.fsm.state != sWaitStartACK {
		t.Fatalf("state = %d after start, want WaitStartACK", h.fsm.state)
	}
	h.fsm.onControl(h.msg(wire.MsgStartACK, h.fsm.session))
	if h.fsm.state != sCounting {
		t.Fatalf("state = %d after ACK, want Counting", h.fsm.state)
	}
}

func TestFSMStaleSessionIgnored(t *testing.T) {
	h := newFSMHarness(t)
	h.fsm.onControl(h.msg(wire.MsgStartACK, h.fsm.session+7))
	if h.fsm.state != sWaitStartACK {
		t.Fatal("ACK with wrong session advanced the FSM")
	}
	h.fsm.onControl(h.msg(wire.MsgStartACK, h.fsm.session-1))
	if h.fsm.state != sWaitStartACK {
		t.Fatal("stale-session ACK advanced the FSM")
	}
}

func TestFSMReportInWrongStateIgnored(t *testing.T) {
	h := newFSMHarness(t)
	rep := h.msg(wire.MsgReport, h.fsm.session)
	rep.Counters = []uint64{0}
	h.fsm.onControl(rep) // still WaitStartACK
	if h.fsm.state != sWaitStartACK || h.fsm.SessionsCompleted != 0 {
		t.Fatal("Report accepted before the session was even open")
	}
}

func TestFSMDuplicateACKHarmless(t *testing.T) {
	h := newFSMHarness(t)
	sess := h.fsm.session
	h.fsm.onControl(h.msg(wire.MsgStartACK, sess))
	h.fsm.onControl(h.msg(wire.MsgStartACK, sess)) // duplicate
	if h.fsm.state != sCounting {
		t.Fatal("duplicate ACK disturbed Counting")
	}
}

func TestFSMFullSessionCycle(t *testing.T) {
	h := newFSMHarness(t)
	sess := h.fsm.session
	h.fsm.onControl(h.msg(wire.MsgStartACK, sess))
	// Advance past the exchange interval: the FSM stops counting.
	h.s.Run(h.s.Now() + DefaultExchangeInterval + sim.Millisecond)
	if h.fsm.state != sWaitReport {
		t.Fatalf("state = %d after interval, want WaitReport", h.fsm.state)
	}
	rep := h.msg(wire.MsgReport, sess)
	rep.Counters = []uint64{0}
	h.fsm.onControl(rep)
	if h.fsm.SessionsCompleted != 1 {
		t.Fatalf("SessionsCompleted = %d, want 1", h.fsm.SessionsCompleted)
	}
	// A new session opened immediately with a fresh session number.
	if h.fsm.session != sess+1 || h.fsm.state != sWaitStartACK {
		t.Fatalf("next session not opened: session=%d state=%d", h.fsm.session, h.fsm.state)
	}
	// A late duplicate Report of the old session is ignored.
	h.fsm.onControl(rep)
	if h.fsm.SessionsCompleted != 1 {
		t.Fatal("duplicate Report double-counted")
	}
}

func TestFSMRetransmitsAndReportsLinkDown(t *testing.T) {
	h := newFSMHarness(t)
	var events []Event
	h.det.OnEvent = func(ev Event) { events = append(events, ev) }
	sent, rtx := h.det.CtlMsgsSent, h.det.Stats().Retransmits
	// No ACK ever arrives: the FSM retransmits every Trtx and reports a
	// link failure after MaxAttempts.
	h.s.Run(h.s.Now() + sim.Time(testCfgAttempts()+2)*DefaultTrtx)
	if h.det.CtlMsgsSent <= sent || h.det.Stats().Retransmits <= rtx {
		t.Fatal("no retransmissions")
	}
	down := 0
	for _, ev := range events {
		if ev.Kind == EventLinkDown {
			down++
		}
	}
	if down != 1 {
		t.Fatalf("link-down events = %d, want exactly 1", down)
	}
	// Recovery: a (very) late ACK clears the condition.
	h.fsm.onControl(h.msg(wire.MsgStartACK, h.fsm.session))
	if h.fsm.state != sCounting || h.fsm.linkDown {
		t.Fatal("late ACK did not recover the session")
	}
}

func testCfgAttempts() int64 { return int64(DefaultMaxAttempts) }

// TestDispatchIgnoresReportOfOtherKind: a unit answers only control messages
// of its own session kind. A well-formed tree Report addressed to dedicated
// unit 0, in its current session and epoch, must not close that session.
func TestDispatchIgnoresReportOfOtherKind(t *testing.T) {
	h := newFSMHarness(t)
	sess := h.fsm.session
	h.fsm.onControl(h.msg(wire.MsgStartACK, sess))
	h.s.Run(h.s.Now() + DefaultExchangeInterval + sim.Millisecond)
	if h.fsm.state != sWaitReport {
		t.Fatalf("state = %d after interval, want WaitReport", h.fsm.state)
	}
	rep := h.msg(wire.MsgReport, sess)
	rep.Kind = wire.KindTree
	rep.Counters = []uint64{0}
	h.det.handleControl(rep, 1)
	if h.fsm.state != sWaitReport || h.fsm.session != sess || h.det.SessionsCompleted(1) != 0 {
		t.Fatalf("tree Report closed a dedicated session: state=%d session=%d completed=%d",
			h.fsm.state, h.fsm.session, h.det.SessionsCompleted(1))
	}
	// The same Report with the unit's own kind closes it.
	rep.Kind = wire.KindDedicated
	h.det.handleControl(rep, 1)
	if h.fsm.SessionsCompleted != 1 {
		t.Fatalf("SessionsCompleted = %d after a dedicated Report, want 1", h.fsm.SessionsCompleted)
	}
}

// --- Receiver FSM edge cases, driven through handleControl ---

type recvHarness struct {
	s   *sim.Sim
	det *Detector
	sw  *netsim.Switch
}

func newRecvHarness(t *testing.T) *recvHarness {
	t.Helper()
	s := sim.New(2)
	sw := netsim.NewSwitch(s, "sw", 2)
	det, err := NewDetector(s, sw, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	det.ListenPort(0)
	return &recvHarness{s: s, det: det, sw: sw}
}

func (h *recvHarness) deliver(typ wire.MsgType, session uint32) {
	h.deliverEpoch(typ, session, 1)
}

func (h *recvHarness) deliverEpoch(typ wire.MsgType, session uint32, epoch uint8) {
	m := &wire.Message{Header: wire.Header{
		Type: typ, Kind: wire.KindDedicated, Epoch: epoch,
		Session: session, Link: 0, Unit: 0,
	}}
	h.det.handleControl(m, 0)
}

func (h *recvHarness) unitFSM() *receiverFSM {
	return h.det.listeners[0].dedicated[0]
}

// TestDispatchReceiverIgnoresStartOfOtherKind: once a unit number has a
// receiver FSM, a Start of a different session kind for that unit is not
// adopted (no reset, no ACK).
func TestDispatchReceiverIgnoresStartOfOtherKind(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	fsm := h.unitFSM()
	fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})
	sent := h.det.CtlMsgsSent
	h.det.handleControl(&wire.Message{Header: wire.Header{
		Type: wire.MsgStart, Kind: wire.KindTree, Epoch: 1, Session: 2, Unit: 0,
	}}, 0)
	if h.unitFSM() != fsm || fsm.session != 1 || fsm.tagged != 1 || fsm.state != rCounting {
		t.Fatalf("tree Start reset the dedicated receiver: session=%d tagged=%d state=%d",
			fsm.session, fsm.tagged, fsm.state)
	}
	if h.det.CtlMsgsSent != sent {
		t.Fatal("tree Start to a dedicated unit was ACKed")
	}
}

// TestReceiverStartBeyondSlotsIgnored: a listening port has a receiver cell
// for each dedicated slot of the detector's own configuration, the tree
// unit and the custom unit. A Start for any other unit number creates no
// FSM and is not ACKed, as a Stop for an unknown session is ignored.
func TestReceiverStartBeyondSlotsIgnored(t *testing.T) {
	h := newRecvHarness(t)
	slots := len(testCfg.HighPriority) + testCfg.DynamicSlots
	for _, unit := range []uint16{uint16(slots), uint16(slots) + 1, customUnitBase - 1, customUnitBase + 1, wire.TreeUnit - 1} {
		h.det.handleControl(&wire.Message{Header: wire.Header{
			Type: wire.MsgStart, Kind: wire.KindDedicated, Epoch: 1, Session: 1, Unit: unit,
		}}, 0)
	}
	n := 0
	h.det.listeners[0].each(func(*receiverFSM) { n++ })
	if n != 0 || h.det.CtlMsgsSent != 0 {
		t.Fatalf("Starts beyond %d slots made %d receiver FSMs and %d control messages, want none", slots, n, h.det.CtlMsgsSent)
	}
	// The last slot is still a unit.
	h.det.handleControl(&wire.Message{Header: wire.Header{
		Type: wire.MsgStart, Kind: wire.KindDedicated, Epoch: 1, Session: 1, Unit: uint16(slots - 1),
	}}, 0)
	if f := h.det.listeners[0].dedicated[slots-1]; f == nil || f.state != rCounting || h.det.CtlMsgsSent != 1 {
		t.Fatalf("a Start for the last slot %d was not adopted and ACKed", slots-1)
	}
}

func TestReceiverStopBeforeStartIgnored(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStop, 5)
	n := 0
	h.det.listeners[0].each(func(*receiverFSM) { n++ })
	if n != 0 {
		t.Fatal("Stop without a Start created a receiver FSM")
	}
}

func TestReceiverStartAckStopReport(t *testing.T) {
	h := newRecvHarness(t)
	before := h.det.CtlMsgsSent
	h.deliver(wire.MsgStart, 1)
	if h.det.CtlMsgsSent != before+1 {
		t.Fatal("no Start ACK sent")
	}
	fsm := h.unitFSM()
	if fsm.state != rCounting {
		t.Fatalf("state = %d, want counting", fsm.state)
	}
	// Tagged packet counted.
	fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})
	h.deliver(wire.MsgStop, 1)
	if fsm.state != rWaitToSend {
		t.Fatalf("state = %d after Stop, want WaitToSend", fsm.state)
	}
	// Counting continues during Twait (delayed packets).
	fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})
	sent := h.det.CtlMsgsSent
	h.s.Run(h.s.Now() + DefaultTwait + sim.Millisecond)
	if h.det.CtlMsgsSent != sent+1 {
		t.Fatal("no Report sent after Twait")
	}
	if fsm.state != rIdle {
		t.Fatal("receiver not idle after Report")
	}
	if got := fsm.lastReport; len(got) != 1 || got[0] != 2 {
		t.Fatalf("report counters = %v, want [2]", got)
	}
}

func TestReceiverDuplicateStartReACKs(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	sent := h.det.CtlMsgsSent
	h.deliver(wire.MsgStart, 1) // retransmitted Start (our ACK was lost)
	if h.det.CtlMsgsSent != sent+1 {
		t.Fatal("retransmitted Start not re-ACKed")
	}
}

func TestReceiverRetransmittedStopResendsReport(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	h.deliver(wire.MsgStop, 1)
	h.s.Run(h.s.Now() + DefaultTwait + sim.Millisecond) // Report sent, now idle
	sent := h.det.CtlMsgsSent
	h.deliver(wire.MsgStop, 1) // upstream never got the Report
	if h.det.CtlMsgsSent != sent+1 {
		t.Fatal("retransmitted Stop did not resend the Report")
	}
	// But a Stop for some other session does nothing.
	h.deliver(wire.MsgStop, 9)
	if h.det.CtlMsgsSent != sent+1 {
		t.Fatal("foreign-session Stop answered")
	}
}

func TestReceiverStopDuringTwaitIgnored(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	h.deliver(wire.MsgStop, 1)
	sent := h.det.CtlMsgsSent
	h.deliver(wire.MsgStop, 1) // duplicate while Twait pending
	if h.det.CtlMsgsSent != sent {
		t.Fatal("duplicate Stop answered early (Report should wait for Twait)")
	}
}

func TestReceiverNewSessionResetsCounters(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	fsm := h.unitFSM()
	fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})
	h.deliver(wire.MsgStart, 2) // next session
	h.deliver(wire.MsgStop, 2)
	h.s.Run(h.s.Now() + DefaultTwait + sim.Millisecond)
	if got := fsm.lastReport; len(got) != 1 || got[0] != 0 {
		t.Fatalf("session 2 report = %v, want [0] (fresh counters)", got)
	}
}
