package fancy

// Robustness tests: epoch-based resynchronization after device restarts,
// the degraded probe state with exponential backoff after link-down, and
// the receiver's protection against duplicated Start messages. The
// randomized end-to-end torture runs live in soak_test.go; these pin the
// individual mechanisms.

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

func TestEpochStampedAndEchoed(t *testing.T) {
	tb := newTestbed(t, testCfg, 30)
	tb.udp(10, 2e6, 0, sim.Second)
	tb.s.Run(sim.Second)
	if tb.det.Epoch() != 1 || tb.downDet.Epoch() != 1 {
		t.Fatalf("fresh detectors have epochs %d/%d, want 1/1", tb.det.Epoch(), tb.downDet.Epoch())
	}
	// The receiver FSMs adopted the upstream's epoch.
	tb.downDet.listeners[0].each(func(fsm *receiverFSM) {
		if fsm.epoch != 1 {
			t.Errorf("receiver unit %d adopted epoch %d, want 1", fsm.unit, fsm.epoch)
		}
	})
}

func TestSenderEpochMismatchIgnored(t *testing.T) {
	h := newFSMHarness(t)
	m := h.msg(wire.MsgStartACK, h.fsm.session)
	m.Epoch = h.det.epoch + 1 // response from another incarnation
	h.fsm.onControl(m)
	if h.fsm.state != sWaitStartACK {
		t.Fatal("foreign-epoch StartACK advanced the FSM")
	}
}

func TestReceiverEpochTransitions(t *testing.T) {
	h := newRecvHarness(t)
	h.deliverEpoch(wire.MsgStart, 1, 1)
	fsm := h.unitFSM()
	fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})

	// A Stop from a different epoch must not close the live session.
	h.deliverEpoch(wire.MsgStop, 1, 2)
	if fsm.state != rCounting {
		t.Fatal("foreign-epoch Stop closed the session")
	}

	// A Start under a NEW epoch — the upstream rebooted and restarted its
	// session numbering — resynchronizes immediately, even with the same
	// session number.
	h.deliverEpoch(wire.MsgStart, 1, 2)
	if fsm.epoch != 2 || fsm.state != rCounting || fsm.tagged != 0 {
		t.Fatalf("epoch bump did not resync: epoch=%d state=%d tagged=%d",
			fsm.epoch, fsm.state, fsm.tagged)
	}
	// And the echo carries the adopted epoch.
	h.deliverEpoch(wire.MsgStop, 1, 2)
	if fsm.state != rWaitToSend {
		t.Fatal("new-epoch Stop ignored after resync")
	}
}

func TestDuplicateStartDoesNotResetLiveCounts(t *testing.T) {
	h := newRecvHarness(t)
	h.deliver(wire.MsgStart, 1)
	fsm := h.unitFSM()
	for i := 0; i < 3; i++ {
		fsm.onIngress(&netsim.Packet{Tagged: true, Tag: wire.DedicatedTag(0)})
	}
	// A duplicated (or reordered) copy of the Start arrives mid-session.
	// Packets have been counted, so the sender's ACK clearly got through:
	// resetting would fabricate a mismatch at session close.
	h.deliver(wire.MsgStart, 1)
	h.deliver(wire.MsgStop, 1)
	h.s.Run(h.s.Now() + DefaultTwait + sim.Millisecond)
	if got := fsm.lastReport; len(got) != 1 || got[0] != 3 {
		t.Fatalf("report after duplicated Start = %v, want [3]", got)
	}
}

func TestProbeBackoffAndRecovery(t *testing.T) {
	h := newFSMHarness(t)
	var events []Event
	h.det.OnEvent = func(ev Event) { events = append(events, ev) }
	// Nothing ever answers: the unit reports link-down, then degrades to
	// backed-off probing instead of hammering Trtx retransmissions. So do
	// the harness's other units, which share the detector's message count.
	units, sent := uint64(len(h.det.monitors[1].dedicated)+1), h.det.CtlMsgsSent
	h.s.Run(h.s.Now() + 4*sim.Second)
	if !h.fsm.linkDown || h.fsm.state != sWaitStartACK {
		t.Fatalf("not probing: linkDown=%v state=%d", h.fsm.linkDown, h.fsm.state)
	}
	if h.fsm.backoff != DefaultMaxProbeInterval {
		t.Fatalf("backoff = %v, want capped at %v", h.fsm.backoff, DefaultMaxProbeInterval)
	}
	// Rough bound: after the first 250 ms the probe intervals are
	// 100+200+400+400+… ms, so ~4 s of silence fits well under 20 sends;
	// plain Trtx retransmission would have sent ~80.
	if sent := h.det.CtlMsgsSent - sent; sent > 20*units {
		t.Errorf("probe state sent %d control messages in 4s over %d units, want backed off (≤20 each)", sent, units)
	}
	st := h.det.Stats()
	if st.Retransmits == 0 || st.LinkDownEvents != 1 || st.LinkUpEvents != 0 {
		t.Errorf("stats = %+v, want retransmits>0, 1 down, 0 up", st)
	}

	// The peer answers a probe: counting resumes. Link-up is announced only
	// once the port's LAST down unit recovers (all four here: three
	// dedicated + the tree).
	h.fsm.onControl(h.msg(wire.MsgStartACK, h.fsm.session))
	if h.fsm.state != sCounting || h.fsm.linkDown || h.fsm.backoff != 0 {
		t.Fatalf("probe ACK did not recover: state=%d linkDown=%v backoff=%v",
			h.fsm.state, h.fsm.linkDown, h.fsm.backoff)
	}
	if !h.det.LinkDown(1) || h.det.Stats().LinkUpEvents != 0 {
		t.Fatal("one recovered unit of four announced link-up early")
	}
	m := h.det.monitors[1]
	for _, f := range append([]*senderFSM{m.tree}, m.dedicated[1:]...) {
		f.onControl(&wire.Message{Header: wire.Header{
			Type: wire.MsgStartACK, Kind: f.kind, Epoch: h.det.epoch,
			Session: f.session, Link: 1, Unit: f.unit,
		}})
	}
	ups := 0
	for _, ev := range events {
		if ev.Kind == EventLinkUp {
			ups++
		}
	}
	if ups != 1 || h.det.Stats().LinkUpEvents != 1 {
		t.Errorf("link-up events = %d (stat %d), want 1", ups, h.det.Stats().LinkUpEvents)
	}
	if h.det.LinkDown(1) {
		t.Error("LinkDown still true after recovery")
	}
}

func TestFlapDownUpRecovery(t *testing.T) {
	// A real outage via the chaos injector: both directions solid-down from
	// 1 s to 2.5 s. The detector must raise link-down during the outage,
	// raise link-up after it clears, and resume completing sessions — with
	// zero false positives on the (healthy) entries.
	tb := newTestbed(t, testCfg, 31)
	tb.udp(10, 2e6, 0, 6*sim.Second)
	tb.udp(300, 2e6, 0, 6*sim.Second)
	for i, end := range []*netsim.LinkEnd{tb.link.AB, tb.link.BA} {
		c := netsim.NewChaos(tb.s, "flap/"+string(rune('a'+i)))
		c.Start = 1 * sim.Second
		c.DownFor = sim.Millisecond // UpFor 0: down for the whole window
		end.SetChaos(c)
		tb.s.ScheduleAt(2500*sim.Millisecond, func() { end.SetChaos(nil) })
	}
	tb.s.Run(6 * sim.Second)

	down, ok := tb.firstEvent(EventLinkDown)
	if !ok {
		t.Fatal("outage did not raise link-down")
	}
	if down.Time < 1*sim.Second || down.Time > 2*sim.Second {
		t.Errorf("link-down at %v, want shortly after 1s", down.Time)
	}
	up, ok := tb.firstEvent(EventLinkUp)
	if !ok {
		t.Fatal("healed link never announced link-up")
	}
	// Recovery latency is bounded by one MaxProbeInterval plus a session
	// open round trip.
	if up.Time < 2500*sim.Millisecond || up.Time > 2500*sim.Millisecond+DefaultMaxProbeInterval+100*sim.Millisecond {
		t.Errorf("link-up at %v, want within a probe interval of 2.5s", up.Time)
	}
	if tb.det.LinkDown(1) {
		t.Error("LinkDown still reported after recovery")
	}
	// Counting resumed: sessions keep completing after the heal.
	if got := tb.det.SessionsCompleted(1); got == 0 {
		t.Error("no sessions completed")
	}
	if n := tb.countEvents(EventDedicated); n != 0 {
		t.Errorf("outage misattributed to entries: %d dedicated events", n)
	}
	if tb.out.Flags.Count() != 0 {
		t.Errorf("%d entries flagged by a link outage", tb.out.Flags.Count())
	}
}

func TestSenderRestartResync(t *testing.T) {
	tb := newTestbed(t, testCfg, 32)
	tb.udp(10, 2e6, 0, 5*sim.Second)
	tb.udp(300, 2e6, 0, 5*sim.Second)
	tb.s.ScheduleAt(1500*sim.Millisecond, tb.det.Restart)
	tb.s.Run(5 * sim.Second)

	if tb.det.Epoch() != 2 || tb.det.Stats().Restarts != 1 {
		t.Fatalf("epoch = %d restarts = %d, want 2/1", tb.det.Epoch(), tb.det.Stats().Restarts)
	}
	// The downstream adopted the new epoch from the first post-restart
	// Starts and the pair kept counting.
	tb.downDet.listeners[0].each(func(fsm *receiverFSM) {
		if !fsm.dead && fsm.epoch != 2 {
			t.Errorf("receiver unit %d still on epoch %d", fsm.unit, fsm.epoch)
		}
	})
	if got := tb.det.SessionsCompleted(1); got < 20 {
		t.Errorf("only %d sessions completed across a restart", got)
	}
	// In-flight responses to pre-restart sessions must not flag anything.
	if n := tb.countEvents(EventDedicated); n != 0 {
		t.Errorf("restart fabricated %d dedicated mismatches", n)
	}
	if tb.out.Flags.Count() != 0 || tb.out.Bloom.inserted != 0 {
		t.Error("restart left false positives in the outputs")
	}
}

func TestReceiverRestartResync(t *testing.T) {
	tb := newTestbed(t, testCfg, 33)
	tb.udp(10, 2e6, 0, 6*sim.Second)
	tb.udp(300, 2e6, 0, 6*sim.Second)
	tb.s.ScheduleAt(1500*sim.Millisecond, tb.downDet.Restart)
	tb.s.Run(6 * sim.Second)

	// A receiver reboot leaves some Stops unanswered (the rebooted side has
	// no session state to report), so units may transit the link-down/probe
	// path — but they must resynchronize and resume counting.
	if tb.det.LinkDown(1) {
		t.Error("link still considered down long after the peer rebooted")
	}
	before := tb.det.SessionsCompleted(1)
	tb.s.Run(8 * sim.Second)
	if after := tb.det.SessionsCompleted(1); after <= before {
		t.Error("sessions stopped completing after the peer restart")
	}
	// The lost session state must never read as an entry failure.
	if n := tb.countEvents(EventDedicated); n != 0 {
		t.Errorf("peer restart fabricated %d dedicated mismatches", n)
	}
	if tb.out.Flags.Count() != 0 || tb.out.Bloom.inserted != 0 {
		t.Error("peer restart left false positives in the outputs")
	}
}

// TestStaleIncarnationOpensNoSession pins "one record, one incarnation". A
// killed sender FSM's sessionOpen cannot be cancelled, so it may still be
// queued when its unit is rebuilt: by Restart before the staggered starts
// have fired, or by Demote then Promote of the same dynamic slot within one
// instant. That event must fire on the killed record, never open a second
// session on the new unit — which it would if the record were reused.
func TestStaleIncarnationOpensNoSession(t *testing.T) {
	// fresh checks that every new unit opened exactly one session, that
	// the detector sent want control messages since its count read sent
	// (one Start per new unit), and that no killed unit opened any.
	fresh := func(t *testing.T, det *Detector, sent, want uint64, killed, live []*senderFSM) {
		t.Helper()
		if got := det.CtlMsgsSent - sent; got != want {
			t.Errorf("%d control messages sent, want %d", got, want)
		}
		for i, f := range live {
			if f == killed[i] {
				t.Errorf("unit %d: the rebuilt unit reuses its killed record", f.unit)
			}
			if f.session != 1 {
				t.Errorf("unit %d: session %d, want 1", f.unit, f.session)
			}
			if killed[i].session != 0 {
				t.Errorf("unit %d: the killed record opened session %d", f.unit, killed[i].session)
			}
		}
	}

	t.Run("restart", func(t *testing.T) {
		tb := newTestbed(t, testCfg, 35)
		m := tb.det.monitors[1]
		// Nothing has run: every static unit's sessionOpen is queued, at
		// 0, 1/3 and 2/3 of the exchange interval.
		killed := append([]*senderFSM(nil), m.dedicated...)
		sent := tb.det.CtlMsgsSent
		tb.det.Restart()
		tb.downDet.Restart()
		if l := tb.downDet.listeners[0]; l.block != nil {
			t.Error("a restarted listener kept its receiver block")
		}
		// Every start has fired; the first session closes at about 90 ms.
		tb.s.Run(DefaultExchangeInterval * 4 / 5)
		fresh(t, tb.det, sent, uint64(len(m.dedicated)+1), killed, m.dedicated) // and the tree's Start
	})

	t.Run("demote-promote", func(t *testing.T) {
		cfg := testCfg
		cfg.DynamicSlots = 2
		tb := newTestbed(t, cfg, 36)
		tb.s.Run(100 * sim.Millisecond)
		slot, err := tb.det.Promote(1, 500)
		if err != nil {
			t.Fatal(err)
		}
		killed := []*senderFSM{tb.det.monitors[1].dedicated[slot]}
		sent := tb.det.CtlMsgsSent
		if err := tb.det.Demote(1, 500); err != nil {
			t.Fatal(err)
		}
		if again, err := tb.det.Promote(1, 500); err != nil || again != slot {
			t.Fatalf("re-promotion took slot %d (%v), want %d", again, err, slot)
		}
		// Both sessionOpens fire now; the Start ACK is 20 ms away.
		tb.s.Run(tb.s.Now() + sim.Millisecond)
		fresh(t, tb.det, sent, 1, killed, tb.det.monitors[1].dedicated[slot:slot+1])
	})
}

func TestRestartStillDetectsRealFailures(t *testing.T) {
	// A restart must reset, not lobotomize: a gray failure present after
	// the reboot is still caught.
	tb := newTestbed(t, testCfg, 34)
	tb.udp(10, 2e6, 0, 6*sim.Second)
	tb.failEntries(2*sim.Second, 1.0, 10)
	tb.s.ScheduleAt(1*sim.Second, tb.det.Restart)
	tb.s.Run(6 * sim.Second)
	if _, ok := tb.firstEvent(EventDedicated); !ok {
		t.Fatal("failure after a restart not detected")
	}
	if !tb.det.Flagged(1, 10) {
		t.Error("failed entry not flagged after restart")
	}
}

func TestRestartMidFailureDropsStaleEpoch(t *testing.T) {
	// A Restart in the middle of a detected failure bumps the epoch and
	// wipes protocol state. No event may come from a stale-epoch session
	// (an in-flight pre-restart Report, say): the only post-restart events
	// come from fresh new-epoch sessions.
	tb := newTestbed(t, testCfg, 36)
	const restartAt = 2 * sim.Second
	tb.udp(10, 2e6, 0, 5*sim.Second)
	tb.failEntries(500*sim.Millisecond, 1.0, 10)
	tb.s.Run(restartAt)
	pre := len(tb.events)
	if pre == 0 {
		t.Fatal("no events before the restart")
	}

	tb.det.Restart()
	if tb.det.Epoch() != 2 || tb.det.Stats().Restarts != 1 {
		t.Errorf("epoch = %d restarts = %d after restart, want 2/1", tb.det.Epoch(), tb.det.Stats().Restarts)
	}
	if tb.det.Flagged(1, 10) {
		t.Error("dedicated flag survived the restart")
	}

	// Within two link delays of the restart the only control messages that
	// can arrive are in-flight pre-restart (stale-epoch) ones; they must be
	// discarded, so no event may fire.
	tb.s.Run(restartAt + 20*sim.Millisecond)
	if got := tb.events[pre:]; len(got) != 0 {
		t.Fatalf("%d event(s) from stale-epoch sessions right after restart: %v", len(got), got)
	}

	// The failure persists, so fresh new-epoch sessions re-detect it.
	tb.s.Run(5 * sim.Second)
	if len(tb.events) == pre {
		t.Fatal("no event after the restart")
	}
	for _, ev := range tb.events[pre:] {
		if ev.Time < restartAt {
			t.Errorf("post-restart event stamped %v, before the restart", ev.Time)
		}
	}
	if !tb.det.Flagged(1, 10) {
		t.Error("entry not re-flagged by post-restart sessions")
	}
}

func TestCorruptedControlCounted(t *testing.T) {
	tb := newTestbed(t, testCfg, 35)
	if consumed := tb.det.OnIngress(&netsim.Packet{
		Proto: netsim.ProtoFancy, Entry: netsim.InvalidEntry, Ctl: []byte{0xde, 0xad, 0xbe, 0xef},
	}, 1); !consumed {
		t.Fatal("corrupted control message not consumed")
	}
	if st := tb.det.Stats(); st.CtlCorrupted != 1 {
		t.Fatalf("CtlCorrupted = %d, want 1", st.CtlCorrupted)
	}
}
