package fancy

import (
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/hh"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

func hhTestConfig() Config {
	return Config{
		Tree:         tree.Params{Width: 8, Depth: 2, Split: 2, Pipelined: true},
		TreeSeed:     7,
		DynamicSlots: 2,
		HH:           &HHStageConfig{Sketch: hh.Params{Stages: 3, Width: 32, Seed: 99}},
	}
}

// TestHHReportsFlow: with the stage deployed, canonical report frames
// arrive once per interval, sequence-numbered, epoch-stamped, and ranking
// the genuinely heavy prefix first.
func TestHHReportsFlow(t *testing.T) {
	tb := newTestbed(t, hhTestConfig(), 1)
	var reports []*hh.Report
	tb.det.OnHHReport = func(port int, frame []byte) {
		if port != 1 {
			t.Fatalf("report from port %d, want 1", port)
		}
		rep, err := hh.DecodeReport(frame)
		if err != nil {
			t.Fatalf("report did not decode: %v", err)
		}
		reports = append(reports, rep)
	}
	tb.udp(7, 4e6, 0, sim.Second)    // heavy
	tb.udp(30, 400e3, 0, sim.Second) // light
	tb.s.Run(sim.Second)

	if len(reports) < 8 {
		t.Fatalf("got %d reports in 1 s, want ~10", len(reports))
	}
	for i, rep := range reports {
		if rep.Seq != uint32(i) {
			t.Fatalf("report %d has seq %d", i, rep.Seq)
		}
		if rep.Epoch != tb.det.Epoch() {
			t.Fatalf("report epoch %d, detector epoch %d", rep.Epoch, tb.det.Epoch())
		}
	}
	// Steady-state windows must rank the heavy prefix first.
	last := reports[len(reports)-1]
	if len(last.Entries) == 0 || last.Entries[0].Entry != 7 {
		t.Fatalf("last report does not lead with the heavy prefix: %+v", last.Entries)
	}
	if last.Packets == 0 {
		t.Fatal("report window saw no packets")
	}
}

// TestHHTickDoesNotAllocate pins a warmed heavy-hitter window close: top-k
// into the port's report, encode into its frame, and a subscriber that
// decodes the borrowed frame into a Report it reuses.
func TestHHTickDoesNotAllocate(t *testing.T) {
	tb := newTestbed(t, hhTestConfig(), 5)
	var rep hh.Report
	reports := 0
	tb.det.OnHHReport = func(_ int, frame []byte) {
		if err := hh.DecodeReportInto(&rep, frame); err != nil {
			t.Fatalf("decode: %v", err)
		}
		reports++
	}
	m := tb.det.monitors[1]
	tick := func() {
		for e := 0; e < 40; e++ {
			for i := 0; i <= e%7; i++ {
				m.hh.Observe(netsim.EntryID(e))
			}
		}
		m.hhTimer.Stop()
		tb.det.hhTick(m, 1)
	}
	for i := 0; i < 4; i++ {
		tick()
	}
	if avg := testing.AllocsPerRun(50, tick); avg != 0 {
		t.Errorf("a warmed HH tick allocates %.2f objects, want 0", avg)
	}
	if reports != 55 || len(rep.Entries) != DefaultHHTopK || rep.Seq != 54 {
		t.Fatalf("%d reports, last with %d entries and seq %d", reports, len(rep.Entries), rep.Seq)
	}
}

// TestPromoteDetectGrayDemote is the full dynamic-slot lifecycle: promote
// a prefix, detect a gray failure on it through the dedicated counter,
// demote it, and reuse the slot.
func TestPromoteDetectGrayDemote(t *testing.T) {
	tb := newTestbed(t, hhTestConfig(), 2)
	tb.udp(7, 4e6, 0, 2*sim.Second)

	tb.s.ScheduleAt(100*sim.Millisecond, func() {
		slot, err := tb.det.Promote(1, 7)
		if err != nil {
			t.Errorf("Promote: %v", err)
		}
		if slot != 0 {
			t.Errorf("first promotion got slot %d, want 0", slot)
		}
	})
	tb.failEntries(500*sim.Millisecond, 1.0, 7)
	tb.s.Run(sim.Second)

	ev, ok := tb.firstEvent(EventDedicated)
	if !ok || ev.Entry != 7 {
		t.Fatalf("no dedicated detection for the promoted entry: %+v ok=%v", ev, ok)
	}
	if ev.Time < 500*sim.Millisecond || ev.Time > 800*sim.Millisecond {
		t.Fatalf("detection at %v, want within ~2 exchange intervals of the failure", ev.Time)
	}
	if !tb.det.Flagged(1, 7) {
		t.Fatal("promoted entry not flagged after detection")
	}
	if used, capacity := tb.det.DynamicOccupancy(1); used != 1 || capacity != 2 {
		t.Fatalf("occupancy = %d/%d, want 1/2", used, capacity)
	}
	if got := tb.det.PromotedEntries(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("PromotedEntries = %v", got)
	}

	if err := tb.det.Demote(1, 7); err != nil {
		t.Fatal(err)
	}
	if tb.det.Flagged(1, 7) {
		t.Fatal("flag survived demotion")
	}
	if used, _ := tb.det.DynamicOccupancy(1); used != 0 {
		t.Fatalf("occupancy after demotion = %d", used)
	}
	st := tb.det.Stats()
	if st.Promotions != 1 || st.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 promotion and 1 demotion", st)
	}
	// The freed slot is reused lowest-first.
	if slot, err := tb.det.Promote(1, 9); err != nil || slot != 0 {
		t.Fatalf("slot reuse: slot=%d err=%v, want 0", slot, err)
	}
}

// TestRepromotedSlotContinuesSessions: a slot demoted while its first
// session waits for the Report, then promoted again, must open its next
// session under a new number. The downstream keeps the slot's receiver,
// which still holds session 1: a new session 1 reads as a retransmitted
// Start, is only re-ACKed and counts nothing, and its Stop makes the
// receiver resend the old Report, which the sender compares with its new
// count. With no loss configured that was a false dedicated-mismatch
// (entry=7 diff=20 at 310.1 ms).
func TestRepromotedSlotContinuesSessions(t *testing.T) {
	tb := newTestbed(t, hhTestConfig(), 2)
	tb.udp(7, 4e6, 160*sim.Millisecond, sim.Second)
	tb.s.ScheduleAt(100*sim.Millisecond, func() {
		if _, err := tb.det.Promote(1, 7); err != nil {
			t.Errorf("Promote: %v", err)
		}
	})
	tb.s.ScheduleAt(170100*sim.Microsecond, func() {
		fsm := tb.det.monitors[1].dedicated[0]
		if fsm.state != sWaitReport || fsm.session != 1 {
			t.Errorf("slot state %d in session %d, want session 1 waiting for its Report", fsm.state, fsm.session)
		}
		if err := tb.det.Demote(1, 7); err != nil {
			t.Error(err)
		}
	})
	tb.s.ScheduleAt(220100*sim.Microsecond, func() {
		if _, err := tb.det.Promote(1, 7); err != nil {
			t.Errorf("re-Promote: %v", err)
		}
	})
	tb.s.ScheduleAt(221*sim.Millisecond, func() {
		if s := tb.det.monitors[1].dedicated[0].session; s != 2 {
			t.Errorf("re-promoted slot opened session %d, want 2", s)
		}
	})
	tb.s.Run(sim.Second)

	for _, ev := range tb.events {
		t.Errorf("event with no loss configured: %v", ev)
	}
	if n := tb.det.monitors[1].dedicated[0].SessionsCompleted; n == 0 {
		t.Fatal("the re-promoted slot completed no session")
	}
}

// TestPromoteErrors: static entries, duplicates and exhaustion are all
// rejected without corrupting state.
func TestPromoteErrors(t *testing.T) {
	cfg := hhTestConfig()
	cfg.HighPriority = []netsim.EntryID{3}
	tb := newTestbed(t, cfg, 3)
	if _, err := tb.det.Promote(1, 3); err == nil {
		t.Fatal("promoted a static high-priority entry")
	}
	if _, err := tb.det.Promote(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.det.Promote(1, 10); err == nil {
		t.Fatal("double promotion accepted")
	}
	if _, err := tb.det.Promote(1, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.det.Promote(1, 12); err == nil {
		t.Fatal("promotion past capacity accepted")
	}
	if err := tb.det.Demote(1, 12); err == nil {
		t.Fatal("demoted an entry that was never promoted")
	}
	// Dynamic slots are provisioned after the static ones: entry 10 got
	// unit len(HighPriority)=1.
	if slot, ok := tb.det.Promoted(1, 10); !ok || slot != 1 {
		t.Fatalf("Promoted(10) = (%d, %v), want slot 1", slot, ok)
	}
}

// TestRestartWipesDynamicSlots: a device reboot forgets every dynamic
// assignment and stamps subsequent reports with the new epoch, which is
// what tells the allocation controller to relearn.
func TestRestartWipesDynamicSlots(t *testing.T) {
	tb := newTestbed(t, hhTestConfig(), 4)
	tb.udp(7, 4e6, 0, sim.Second)
	var epochs []uint8
	tb.det.OnHHReport = func(_ int, frame []byte) {
		rep, err := hh.DecodeReport(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		epochs = append(epochs, rep.Epoch)
	}
	tb.s.ScheduleAt(100*sim.Millisecond, func() {
		if _, err := tb.det.Promote(1, 7); err != nil {
			t.Errorf("Promote: %v", err)
		}
	})
	tb.s.ScheduleAt(450*sim.Millisecond, tb.det.Restart)
	tb.s.Run(sim.Second)

	if _, ok := tb.det.Promoted(1, 7); ok {
		t.Fatal("dynamic assignment survived Restart")
	}
	if used, capacity := tb.det.DynamicOccupancy(1); used != 0 || capacity != 2 {
		t.Fatalf("occupancy after restart = %d/%d", used, capacity)
	}
	if len(epochs) < 6 {
		t.Fatalf("only %d reports", len(epochs))
	}
	if epochs[0] != 1 || epochs[len(epochs)-1] != 2 {
		t.Fatalf("epochs %v do not span the restart", epochs)
	}
	// Promotion works again post-restart, from a clean slot list.
	if slot, err := tb.det.Promote(1, 8); err != nil || slot != 0 {
		t.Fatalf("post-restart promotion: slot=%d err=%v", slot, err)
	}
}
