package fleet

// Survivability tests: the fleet control plane over a lossy management
// network, correlator crash/restart from checkpoint, degraded-mode local
// protection under a partition, and the correlator's alarm/epoch guards.

import (
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

func countEvents(f *Fleet, kind EventKind, link string) int {
	n := 0
	for _, ev := range f.Events {
		if ev.Kind == kind && (link == "" || ev.Link == link) {
			n++
		}
	}
	return n
}

// mgmtCfg is fleetCfg over the given management network.
func mgmtCfg(m mgmt.Config, entries ...netsim.EntryID) Config {
	cfg := fleetCfg(entries...)
	cfg.Mgmt = &m
	return cfg
}

// TestMgmtLossyLocalization: with 20% management-plane loss plus
// duplication and jitter, retries and transport dedup keep localization
// exact — one verdict on the failed link, duplicates never double-counted.
func TestMgmtLossyLocalization(t *testing.T) {
	const failAt = 2 * sim.Second
	r := start(t, lineTrial(42, mgmtCfg(mgmt.Config{Loss: 0.2, Duplicate: 0.2, Jitter: sim.Millisecond}, entry),
		failAt, 8*sim.Second))
	f := r.Fleet
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want exactly [B->C]", got)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events for B->C, want exactly 1", nLoc)
	}
	ttl := f.LocalizedAt("B->C") - failAt
	if ttl <= 0 || ttl > 20*fancy.DefaultExchangeInterval {
		t.Fatalf("time-to-localize %v under 20%% mgmt loss, want bounded degradation", ttl)
	}
	snap := f.Snapshot()
	if !snap.MgmtEnabled || snap.MgmtNet.Lost == 0 {
		t.Fatalf("management impairments not exercised: %+v", snap.MgmtNet)
	}
	if snap.MgmtDuplicates == 0 {
		t.Fatal("no transport duplicates suppressed despite Duplicate=0.2")
	}
	if snap.MgmtHoles != 0 {
		t.Fatalf("%d report holes without any partition/overflow", snap.MgmtHoles)
	}
}

// TestMgmtDeterminism: the full management plane (loss, duplication,
// jitter, retries) must replay byte-identically under the same seed.
func TestMgmtDeterminism(t *testing.T) {
	run := func() string {
		r := start(t, lineTrial(23, mgmtCfg(mgmt.Config{Loss: 0.25, Duplicate: 0.2, Jitter: 2 * sim.Millisecond}, entry),
			2*sim.Second, 5*sim.Second,
			Fault{At: 2500 * sim.Millisecond, Kind: FaultKillLeader},
			Fault{At: 2900 * sim.Millisecond, Kind: FaultRestartKilled}))
		r.Finish()
		return r.Fleet.Snapshot().Report()
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("non-deterministic mgmt fleet:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
	}
}

// TestDuplicateAlarmNotDoubleCounted: the same session's alarm delivered
// twice (management-plane duplication that slips past transport dedup,
// e.g. a post-restore retransmission) must count as one piece of evidence.
func TestDuplicateAlarmNotDoubleCounted(t *testing.T) {
	tr := lineTrial(5, fleetCfg(entry), 0, 0)
	tr.Flows, tr.Faults = nil, nil
	r := start(t, tr)
	f := r.Fleet
	rep := eventReport{
		Epoch: f.Detectors["B"].Epoch(),
		Ev: fancy.Event{
			Time: r.Sim.Now(), Port: r.Net.PortOf["B"]["C"],
			Kind: fancy.EventDedicated, Entry: entry, Diff: 3,
		},
	}
	f.handleReport("B", rep)
	f.handleReport("B", rep) // duplicated delivery of the same alarm
	ls := f.link("B->C")
	if f.Alarms != 1 || ls.alarms != 1 {
		t.Fatalf("alarms=%d link=%d after duplicate delivery, want 1/1", f.Alarms, ls.alarms)
	}
	if len(ls.evidence) != 1 {
		t.Fatalf("evidence len %d, want 1 (no double counting)", len(ls.evidence))
	}
	if n := countEvents(f, EventAlarm, "B->C"); n != 1 {
		t.Fatalf("%d alarm events, want 1", n)
	}
}

// TestCorrelatorCrashRestart: a correlator crash after localization loses
// nothing — the checkpoint preserves the confirmed verdict, the restarted
// correlator deduplicates retransmitted evidence, and no duplicate
// localization is ever emitted.
func TestCorrelatorCrashRestart(t *testing.T) {
	// A perfect channel isolates the crash semantics.
	r := start(t, lineTrial(19, mgmtCfg(mgmt.Config{}, entry), 2*sim.Second, 8*sim.Second))
	f := r.Fleet

	// Crash well after the verdict (~2.2 s) and the 2.5 s checkpoint; the
	// outage spans several counting sessions' worth of fresh alarms.
	r.Sim.ScheduleAt(2600*sim.Millisecond, func() {
		if len(f.Localized()) != 1 {
			t.Fatal("failure not localized before the crash — timing assumption broken")
		}
		f.KillLeader()
		if !f.Crashed() {
			t.Fatal("KillLeader did not take")
		}
	})
	r.Sim.ScheduleAt(3200*sim.Millisecond, func() {
		f.RestartReplica(0)
		// The confirmed verdict must survive the restart verbatim.
		if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
			t.Fatalf("verdict lost across crash/restart: %v", got)
		}
	})
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v at end, want exactly [B->C]", got)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want 1 (no duplicate verdicts after restart)", nLoc)
	}
	if f.Corr.Crashes != 1 || f.Corr.Restores != 1 || f.Corr.Checkpoints == 0 {
		t.Fatalf("lifecycle counters %+v, want 1 crash, 1 restore, >0 checkpoints", f.Corr)
	}
	if !hasEvent(f, EventCorrelatorCrash, "") || !hasEvent(f, EventCorrelatorRestart, "checkpoint at") {
		t.Fatal("correlator lifecycle events missing")
	}
}

// whenVerdictPending polls B->C from 2 s on and runs act once, the moment
// its evidence window is open; the returned flag reports whether it ran.
func whenVerdictPending(r *Run, act func()) *bool {
	done := new(bool)
	var poll func()
	poll = func() {
		if r.Fleet.link("B->C").verdictPending {
			*done = true
			act()
		} else if r.Sim.Now() < 4*sim.Second {
			r.Sim.After(10*sim.Millisecond, poll)
		}
	}
	r.Sim.ScheduleAt(2*sim.Second, poll)
	return done
}

// TestCrashMidEvidenceWindow: a crash between the first alarm and the
// verdict re-opens the evidence window from the checkpoint, and the
// persisting failure still localizes exactly once.
func TestCrashMidEvidenceWindow(t *testing.T) {
	cfg := mgmtCfg(mgmt.Config{}, entry)
	cfg.Window = 400 * sim.Millisecond // long window, so the crash lands inside it
	r := start(t, lineTrial(29, cfg, 2*sim.Second, 8*sim.Second))
	f := r.Fleet
	crashed := whenVerdictPending(r, func() {
		id := f.KillLeader()
		r.Sim.After(200*sim.Millisecond, func() { f.RestartReplica(id) })
	})
	r.Finish()

	if !*crashed {
		t.Fatal("no evidence window ever opened — scenario broken")
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want [B->C] despite mid-window crash", got)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want 1", nLoc)
	}
	if !hasEvent(f, EventCorrelatorRestart, "window(s) re-opened") {
		t.Fatal("restart did not re-open the pending evidence window")
	}
}

// TestPartitionDegradedProtectionAndHandback is the survivability
// acceptance scenario: a switch partitioned from the correlator keeps
// protecting its entries autonomously (degraded mode), the reroute engages
// within roughly one counting session of detection, and after the heal the
// agent hands control back — one confirmed verdict, one recorded reroute,
// no duplicates.
func TestPartitionDegradedProtectionAndHandback(t *testing.T) {
	const partitionAt = 1500 * sim.Millisecond
	const failAt = 2 * sim.Second
	const healAt = 3 * sim.Second
	r := start(t, grayTrial(31, seattleSunnyvale, mgmtCfg(mgmt.Config{}, 10, 11), failAt, 8*sim.Second,
		Fault{At: partitionAt, Kind: FaultPartition, Switch: "seattle"},
		Fault{At: healAt, Kind: FaultHeal, Switch: "seattle"}))
	f := r.Fleet
	delivered := deliveries(r, "h-sunnyvale")

	r.Sim.ScheduleAt(failAt-sim.Millisecond, func() {
		if !f.agents["seattle"].degraded {
			t.Error("agent not degraded before the failure despite the partition")
		}
	})
	// Degraded-mode local protection must reroute within ~one counting
	// session of the detector flagging the entry (flagging itself takes a
	// session or two from the failure).
	r.Sim.ScheduleAt(failAt+4*fancy.DefaultExchangeInterval, func() {
		if !f.Rerouted("seattle", entry) {
			t.Error("degraded-mode local reroute did not engage within a few counting sessions")
		}
		if len(f.Localized()) != 0 {
			t.Error("correlator localized during the partition — it cannot have the evidence yet")
		}
	})
	r.Finish()

	if f.agents["seattle"].degraded {
		t.Fatal("agent still degraded after the heal")
	}
	if !hasEvent(f, EventDegradedHandback, "local reroute(s)") {
		t.Fatal("no degraded-mode handback recorded")
	}
	if f.Corr.Handbacks != 1 {
		t.Fatalf("Handbacks=%d, want 1", f.Corr.Handbacks)
	}
	// The spooled evidence replays after the heal and the correlator takes
	// gating back: exactly one confirmed verdict, on the right link.
	if got := f.Localized(); len(got) != 1 || got[0] != "seattle->sunnyvale" {
		t.Fatalf("localized %v, want exactly [seattle->sunnyvale]", got)
	}
	if nLoc := r.Verdicts("seattle->sunnyvale"); nLoc != 1 {
		t.Fatalf("%d localization events, want 1 (no duplicate verdicts after handback)", nLoc)
	}
	if f.Reroutes != 1 {
		t.Fatalf("Reroutes=%d, want 1 (degraded reroute recorded once)", f.Reroutes)
	}
	if !hasEvent(f, EventRerouted, "degraded-local") {
		t.Fatal("reroute not attributed to degraded-mode local protection")
	}
	if !hasEvent(f, EventSwitchUnreachable, "") || !hasEvent(f, EventSwitchReachable, "") {
		t.Fatal("liveness transitions not surfaced")
	}
	// The detour must actually deliver traffic throughout the partition.
	if *delivered < 1200 {
		t.Fatalf("only %d packets delivered — degraded protection did not keep traffic flowing", *delivered)
	}
}

// TestRestartMidEvidenceWindowPurgesEpoch is the stale-epoch regression:
// restarting the UPSTREAM switch while its link has an open evidence window
// must clamp the window (timer stopped, cross-epoch evidence discarded)
// instead of letting a verdict fire over counters from two incarnations.
// The persisting failure then re-alarms under the new epoch and localizes.
func TestRestartMidEvidenceWindowPurgesEpoch(t *testing.T) {
	cfg := fleetCfg(entry)
	cfg.Window = 300 * sim.Millisecond // wide window so the restart lands inside
	r := start(t, lineTrial(37, cfg, 2*sim.Second, 10*sim.Second))
	f := r.Fleet
	restarted := whenVerdictPending(r, func() { f.Detectors["B"].Restart() })
	r.Finish()

	if !*restarted {
		t.Fatal("no evidence window ever opened — scenario broken")
	}
	if !hasEvent(f, EventSuppressed, "epoch-change") {
		t.Fatal("epoch advance did not purge the pending evidence window")
	}
	if f.Corr.EpochPurges == 0 {
		t.Fatalf("EpochPurges=%d, want >0", f.Corr.EpochPurges)
	}
	// The window's timer was clamped: no verdict fired over the purged
	// evidence, and the persisting failure re-localized under epoch 2.
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want [B->C] after the epoch purge", got)
	}
	if f.epochCur["B"] != 2 {
		t.Fatalf("correlator tracks epoch %d for B, want 2", f.epochCur["B"])
	}
}

// TestAcknowledgeSurvivesCrash: an operator's Acknowledge is a durable state
// change like any other — a correlator that crashes (or a leader that dies)
// right after it must not come back with the acknowledged verdict. The
// traffic has stopped by then, so nothing can re-localize the link: a
// verdict after the restore can only be the old one resurrected.
func TestAcknowledgeSurvivesCrash(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg     Config
		outage  func(f *Fleet)
		settle  sim.Time // replication / failover time around the outage
		wantEvt EventKind
	}{
		"single-instance": {cfg: mgmtCfg(mgmt.Config{}, entry), wantEvt: EventCorrelatorRestart,
			outage: func(f *Fleet) { f.RestartReplica(f.KillLeader()) }},
		"3-replica KillLeader": {cfg: replicatedCfg(0, entry), settle: 2 * sim.Second, wantEvt: EventLeaderElected,
			outage: func(f *Fleet) { f.KillLeader() }},
	} {
		t.Run(name, func(t *testing.T) {
			tr := lineTrial(17, tc.cfg, 2*sim.Second, 5*sim.Second)
			tr.Flows[0].Until = 4 * sim.Second
			r := start(t, tr)
			f, s := r.Fleet, r.Sim
			r.Finish()
			if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
				t.Fatalf("localized %v before the acknowledge, want [B->C]", got)
			}

			f.Acknowledge("B->C")
			s.Run(s.Now() + tc.settle/10) // let the entry reach the followers
			tc.outage(f)
			s.Run(s.Now() + tc.settle)

			if !hasEvent(f, tc.wantEvt, "") || f.Crashed() {
				t.Fatalf("no %v, or still crashed=%v: the outage did not complete", tc.wantEvt, f.Crashed())
			}
			if got := f.Localized(); len(got) != 0 {
				t.Fatalf("acknowledged verdict resurrected by the outage: localized %v", got)
			}
		})
	}
}
