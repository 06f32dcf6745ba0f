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
	"fancy/internal/topo"
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

// abileneProtected builds the acceptance topology: Abilene, one protected
// entry at seattle whose primary is seattle→sunnyvale and whose backup
// detours via denver.
func abileneProtected(t *testing.T, s *sim.Sim, cfg Config) (*topo.Network, *Fleet, netsim.EntryID) {
	t.Helper()
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "h-sunnyvale", Attach: "sunnyvale"},
		{Name: "h-seattle", Attach: "seattle"},
	}
	n, err := topo.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "h-sunnyvale"}); err != nil {
		t.Fatal(err)
	}
	f, err := New(s, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	route := n.Switches["seattle"].Routes.InsertEntry(entry, netsim.Route{
		Port:   n.PortOf["seattle"]["sunnyvale"],
		Backup: n.PortOf["seattle"]["denver"],
	})
	if err := f.Protect("seattle", entry, route); err != nil {
		t.Fatal(err)
	}
	return n, f, entry
}

// TestMgmtLossyLocalization: with 20% management-plane loss plus
// duplication and jitter, retries and transport dedup keep localization
// exact — one verdict on the failed link, duplicates never double-counted.
func TestMgmtLossyLocalization(t *testing.T) {
	s := sim.New(42)
	n, err := topo.Build(s, lineSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(entry)
	cfg.Mgmt = &mgmt.Config{Loss: 0.2, Duplicate: 0.2, Jitter: sim.Millisecond}
	f, err := New(s, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H1", entry, 2e6, 8*sim.Second)
	const failAt = 2 * sim.Second
	n.Direction("B", "C").SetFailure(netsim.FailEntries(9, failAt, 1.0, entry))
	s.Run(8 * sim.Second)

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want exactly [B->C]", got)
	}
	if nLoc := countEvents(f, EventLocalized, "B->C"); nLoc != 1 {
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
		s := sim.New(23)
		n, err := topo.Build(s, lineSpec(0))
		if err != nil {
			t.Fatal(err)
		}
		const entry = netsim.EntryID(10)
		if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
			t.Fatal(err)
		}
		cfg := fleetCfg(entry)
		cfg.Mgmt = &mgmt.Config{Loss: 0.25, Duplicate: 0.2, Jitter: 2 * sim.Millisecond}
		f, err := New(s, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		udp(n, "H1", entry, 2e6, 5*sim.Second)
		n.Direction("B", "C").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, entry))
		s.ScheduleAt(2500*sim.Millisecond, f.CrashCorrelator)
		s.ScheduleAt(2900*sim.Millisecond, f.RestartCorrelator)
		s.Run(5 * sim.Second)
		return f.Snapshot().Report()
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
	s := sim.New(5)
	n, err := topo.Build(s, lineSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	f, err := New(s, n, fleetCfg(entry))
	if err != nil {
		t.Fatal(err)
	}
	rep := eventReport{
		Epoch: f.Detectors["B"].Epoch(),
		Ev: fancy.Event{
			Time: s.Now(), Port: n.PortOf["B"]["C"],
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
	s := sim.New(19)
	n, err := topo.Build(s, lineSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(entry)
	cfg.Mgmt = &mgmt.Config{} // perfect channel: isolate the crash semantics
	f, err := New(s, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H1", entry, 2e6, 8*sim.Second)
	n.Direction("B", "C").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, entry))

	// Crash well after the verdict (~2.2 s) and the 2.5 s checkpoint; the
	// outage spans several counting sessions' worth of fresh alarms.
	s.ScheduleAt(2600*sim.Millisecond, func() {
		if len(f.Localized()) != 1 {
			t.Fatal("failure not localized before the crash — timing assumption broken")
		}
		f.CrashCorrelator()
		if !f.Crashed() {
			t.Fatal("CrashCorrelator did not take")
		}
	})
	s.ScheduleAt(3200*sim.Millisecond, func() {
		f.RestartCorrelator()
		// The confirmed verdict must survive the restart verbatim.
		if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
			t.Fatalf("verdict lost across crash/restart: %v", got)
		}
	})
	s.Run(8 * sim.Second)

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v at end, want exactly [B->C]", got)
	}
	if nLoc := countEvents(f, EventLocalized, "B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want 1 (no duplicate verdicts after restart)", nLoc)
	}
	if f.Corr.Crashes != 1 || f.Corr.Restores != 1 || f.Corr.Checkpoints == 0 {
		t.Fatalf("lifecycle counters %+v, want 1 crash, 1 restore, >0 checkpoints", f.Corr)
	}
	if !hasEvent(f, EventCorrelatorCrash, "") || !hasEvent(f, EventCorrelatorRestart, "checkpoint at") {
		t.Fatal("correlator lifecycle events missing")
	}
}

// TestCrashMidEvidenceWindow: a crash between the first alarm and the
// verdict re-opens the evidence window from the checkpoint, and the
// persisting failure still localizes exactly once.
func TestCrashMidEvidenceWindow(t *testing.T) {
	s := sim.New(29)
	n, err := topo.Build(s, lineSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(entry)
	cfg.Mgmt = &mgmt.Config{}
	cfg.Window = 400 * sim.Millisecond // long window, so the crash lands inside it
	f, err := New(s, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H1", entry, 2e6, 8*sim.Second)
	n.Direction("B", "C").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, entry))

	crashed := false
	var poll func()
	poll = func() {
		if !crashed && f.link("B->C").verdictPending {
			crashed = true
			f.CrashCorrelator()
			s.Schedule(200*sim.Millisecond, f.RestartCorrelator)
			return
		}
		if !crashed && s.Now() < 4*sim.Second {
			s.Schedule(10*sim.Millisecond, poll)
		}
	}
	s.ScheduleAt(2*sim.Second, poll)
	s.Run(8 * sim.Second)

	if !crashed {
		t.Fatal("no evidence window ever opened — scenario broken")
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want [B->C] despite mid-window crash", got)
	}
	if nLoc := countEvents(f, EventLocalized, "B->C"); nLoc != 1 {
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
	s := sim.New(31)
	cfg := fleetCfg(10, 11)
	cfg.Mgmt = &mgmt.Config{}
	n, f, entry := abileneProtected(t, s, cfg)

	delivered := 0
	n.Hosts["h-sunnyvale"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Entry == entry {
			delivered++
		}
	})
	udp(n, "h-seattle", entry, 2e6, 8*sim.Second)

	const partitionAt = 1500 * sim.Millisecond
	const failAt = 2 * sim.Second
	const healAt = 3 * sim.Second
	s.ScheduleAt(partitionAt, func() { f.PartitionSwitch("seattle") })
	s.ScheduleAt(failAt-sim.Millisecond, func() {
		if !f.Degraded("seattle") {
			t.Error("agent not degraded before the failure despite the partition")
		}
	})
	n.Direction("seattle", "sunnyvale").SetFailure(netsim.FailEntries(7, failAt, 1.0, entry))
	// Degraded-mode local protection must reroute within ~one counting
	// session of the detector flagging the entry (flagging itself takes a
	// session or two from the failure).
	s.ScheduleAt(failAt+4*fancy.DefaultExchangeInterval, func() {
		if !f.Rerouted("seattle", entry) {
			t.Error("degraded-mode local reroute did not engage within a few counting sessions")
		}
		if len(f.Localized()) != 0 {
			t.Error("correlator localized during the partition — it cannot have the evidence yet")
		}
	})
	s.ScheduleAt(healAt, func() { f.HealSwitch("seattle") })
	s.Run(8 * sim.Second)

	if f.Degraded("seattle") {
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
	if nLoc := countEvents(f, EventLocalized, "seattle->sunnyvale"); nLoc != 1 {
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
	if delivered < 1200 {
		t.Fatalf("only %d packets delivered — degraded protection did not keep traffic flowing", delivered)
	}
}

// TestRestartMidEvidenceWindowPurgesEpoch is the stale-epoch regression:
// restarting the UPSTREAM switch while its link has an open evidence window
// must clamp the window (timer stopped, cross-epoch evidence discarded)
// instead of letting a verdict fire over counters from two incarnations.
// The persisting failure then re-alarms under the new epoch and localizes.
func TestRestartMidEvidenceWindowPurgesEpoch(t *testing.T) {
	s := sim.New(37)
	n, err := topo.Build(s, lineSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(10)
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(entry)
	cfg.Window = 300 * sim.Millisecond // wide window so the restart lands inside
	f, err := New(s, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H1", entry, 2e6, 10*sim.Second)
	n.Direction("B", "C").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, entry))

	restarted := false
	var poll func()
	poll = func() {
		if !restarted && f.link("B->C").verdictPending {
			restarted = true
			f.Detectors["B"].Restart()
			return
		}
		if !restarted && s.Now() < 4*sim.Second {
			s.Schedule(10*sim.Millisecond, poll)
		}
	}
	s.ScheduleAt(2*sim.Second, poll)
	s.Run(10 * sim.Second)

	if !restarted {
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
	const entry = netsim.EntryID(10)
	single := fleetCfg(entry)
	single.Mgmt = &mgmt.Config{}
	for name, tc := range map[string]struct {
		cfg     Config
		outage  func(f *Fleet)
		settle  sim.Time // replication / failover time around the outage
		wantEvt EventKind
	}{
		"single-instance": {cfg: single, wantEvt: EventCorrelatorRestart,
			outage: func(f *Fleet) { f.CrashCorrelator(); f.RestartCorrelator() }},
		"3-replica KillLeader": {cfg: replicatedCfg(0, entry), settle: 2 * sim.Second, wantEvt: EventLeaderElected,
			outage: func(f *Fleet) { f.KillLeader() }},
	} {
		t.Run(name, func(t *testing.T) {
			s := sim.New(17)
			n, err := topo.Build(s, lineSpec(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
				t.Fatal(err)
			}
			f, err := New(s, n, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			udp(n, "H1", entry, 2e6, 4*sim.Second)
			n.Direction("B", "C").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, entry))
			s.Run(5 * sim.Second)
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
