package fleet

// Verified-commit gate tests: safe commits pass untouched, composed-loop
// flips are rejected and repaired via an alternate next hop, unrepairable
// flips hold until a conflicting reroute rolls back, the gate survives
// correlator crash/restart and leader failover without double-committing,
// and a flip the model cannot evaluate falls back to the unverified behavior.

import (
	"slices"
	"strings"
	"testing"

	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// verifiedCfg is fleetCfg plus the verified-commit gate.
func verifiedCfg(entries ...netsim.EntryID) Config {
	cfg := fleetCfg(entries...)
	cfg.Verify = &VerifyConfig{}
	return cfg
}

// backupOf reads the live backup port of the entry's route at sw.
func backupOf(r *Run, sw string) int {
	return r.Net.Switches[sw].Routes.Lookup(netsim.EntryAddr(entry, 1)).Backup
}

// holdTrial is the scenario with no safe alternate: for traffic to denver,
// sunnyvale's backup (seattle) loops once seattle has diverted via sunnyvale,
// and its only alternate (losangeles) default-routes to denver through
// sunnyvale — also a loop. The failures are staggered so seattle commits
// first and sunnyvale's backup is provably unsafe by the time it localizes.
func holdTrial(maxRetries int, seattleUntil, sunnyvaleUntil, duration sim.Time, faults ...Fault) Trial {
	cfg := verifiedCfg(entry)
	cfg.Verify.MaxRetries = maxRetries
	return Trial{
		Seed: 42, Config: cfg, Duration: duration,
		Spec:   abileneSpec("denver", "seattle", "sunnyvale"),
		Routes: map[netsim.EntryID]string{entry: "h-denver"},
		Protect: []Protection{
			{Switch: "seattle", Entry: entry, PrimaryTo: "denver", BackupTo: "sunnyvale"},
			{Switch: "sunnyvale", Entry: entry, PrimaryTo: "denver", BackupTo: "seattle"},
		},
		Flows: []Flow{
			{From: "h-seattle", Entry: entry, RateBps: 2e6, Until: seattleUntil},
			{From: "h-sunnyvale", Entry: entry, RateBps: 2e6, Until: sunnyvaleUntil},
		},
		Faults: append([]Fault{
			grayAt(1*sim.Second, "seattle", "denver", entry),
			grayAt(2500*sim.Millisecond, "sunnyvale", "denver", entry),
		}, faults...),
	}
}

// TestVerifiedSafeCommit: the PR-0 acceptance scenario with the gate on. A
// loop-free backup commits exactly as before — same localization, same
// reroute — plus a checked/committed decision, the snapshot's verify
// counters and the verify line in the report.
func TestVerifiedSafeCommit(t *testing.T) {
	r := start(t, grayTrial(42, seattleSunnyvale, verifiedCfg(entry), 2*sim.Second, 8*sim.Second))
	f := r.Fleet
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "seattle->sunnyvale" {
		t.Fatalf("localized %v, want exactly [seattle->sunnyvale]", got)
	}
	if !f.Rerouted("seattle", entry) {
		t.Fatal("safe backup was not committed")
	}
	if f.Verify.Committed != 1 || f.Verify.Rejected != 0 || f.Verify.Fallbacks != 0 {
		t.Fatalf("gate stats %+v, want exactly one clean commit", f.Verify)
	}
	if f.Verify.Checked == 0 || f.Verify.AtomsChecked == 0 {
		t.Fatalf("gate stats %+v: commit was not actually checked", f.Verify)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
	snap := f.Snapshot()
	if !snap.VerifyEnabled || snap.VerifyAtoms == 0 || snap.Verify.Committed != 1 {
		t.Fatalf("snapshot verify block wrong: %+v", snap.Verify)
	}
	if !strings.Contains(snap.Report(), "verify: on checked=") {
		t.Fatalf("report misses the verify line:\n%s", snap.Report())
	}
}

// TestVerifiedRejectAndRepair is the concurrent-gray-failure composition:
// traffic washington→kansascity; atlanta's backup (via houston) and
// houston's backup (via atlanta) are each individually loop-free, but once
// atlanta has diverted, committing houston's configured backup would
// install an atlanta↔houston loop. The gate must reject it with the
// verdict and repair via losangeles — the only remaining next hop whose
// post-commit state is loop-free — restoring end-to-end delivery.
func TestVerifiedRejectAndRepair(t *testing.T) {
	r := start(t, Trial{
		Seed: 42, Config: verifiedCfg(entry), Duration: 10 * sim.Second,
		Spec:   abileneSpec("kansascity", "washington"),
		Routes: map[netsim.EntryID]string{entry: "h-kansascity"},
		Protect: []Protection{
			{Switch: "atlanta", Entry: entry, PrimaryTo: "indianapolis", BackupTo: "houston"},
			{Switch: "houston", Entry: entry, PrimaryTo: "kansascity", BackupTo: "atlanta"},
		},
		Flows: []Flow{{From: "h-washington", Entry: entry, RateBps: 2e6}},
		// Concurrent gray failures: the primary path's atlanta→indianapolis
		// hop and the would-be detour's houston→kansascity hop.
		Faults: []Fault{
			grayAt(1*sim.Second, "atlanta", "indianapolis", entry),
			grayAt(1*sim.Second, "houston", "kansascity", entry),
		},
	})
	f, n := r.Fleet, r.Net
	delivered := deliveries(r, "h-kansascity")
	r.Finish()

	loc := f.Localized()
	if len(loc) != 2 || loc[0] != "atlanta->indianapolis" || loc[1] != "houston->kansascity" {
		t.Fatalf("localized %v, want both injected links exactly", loc)
	}
	if !f.Rerouted("atlanta", entry) || !f.Rerouted("houston", entry) {
		t.Fatal("both switches must end up diverted")
	}
	if !hasEvent(f, EventRerouteRejected, "loop") {
		t.Fatal("houston's looping backup was not rejected with a loop verdict")
	}
	if !hasEvent(f, EventRerouteRepaired, "") {
		t.Fatal("no repair event")
	}
	if want := n.PortOf["houston"]["losangeles"]; backupOf(r, "houston") != want {
		t.Fatalf("houston diverted via port %d, want losangeles (%d)", backupOf(r, "houston"), want)
	}
	if f.Verify.Rejected == 0 || f.Verify.Repaired == 0 || f.Verify.Committed == 0 {
		t.Fatalf("gate stats %+v, want a commit, a rejection and a repair", f.Verify)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
	// The repaired detour (…→houston→losangeles→sunnyvale→denver→kansascity)
	// must actually deliver the tail of the flow.
	if *delivered < 1000 {
		t.Fatalf("only %d packets delivered; repaired detour not carrying traffic", *delivered)
	}
}

// TestVerifiedHoldAndRetry: with no safe alternate the flip must hold, commit
// nothing unsafe, and go through the moment the operator rolls seattle back.
func TestVerifiedHoldAndRetry(t *testing.T) {
	// MaxRetries 1000: the test drives the unblock explicitly.
	r := start(t, holdTrial(1000, 4*sim.Second, 8*sim.Second, 4*sim.Second))
	f, s, n := r.Fleet, r.Sim, r.Net
	r.Finish()
	if !f.Rerouted("seattle", entry) {
		t.Fatal("seattle's safe commit missing")
	}
	if f.Rerouted("sunnyvale", entry) {
		t.Fatal("sunnyvale committed despite having no safe next hop")
	}
	if !hasEvent(f, EventRerouteHeld, "") || len(f.verifyHeld) != 1 {
		t.Fatalf("flip not held: held-events=%v pending=%d",
			hasEvent(f, EventRerouteHeld, ""), len(f.verifyHeld))
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("audit unsafe while holding: %s", audit)
	}
	// The hold's retry tick is pending; arming again must not queue another.
	pending := s.Pending()
	f.armVerifyTimer()
	if s.Pending() != pending {
		t.Fatalf("a second arm queued another retry tick: %d → %d events", pending, s.Pending())
	}

	// Operator rolls seattle back (its link is repaired out-of-band): the
	// conflicting reroute disappears and the held flip must commit on the
	// immediate re-check.
	s.ScheduleAt(5*sim.Second, func() { f.RestoreEntry("seattle", entry) })
	s.Run(8 * sim.Second)

	if !f.Rerouted("sunnyvale", entry) {
		t.Fatal("held flip did not commit after the conflicting reroute rolled back")
	}
	if want := n.PortOf["sunnyvale"]["seattle"]; backupOf(r, "sunnyvale") != want {
		t.Fatalf("sunnyvale diverted via port %d, want seattle (%d)", backupOf(r, "sunnyvale"), want)
	}
	if len(f.verifyHeld) != 0 && f.Verify.Abandoned == 0 {
		t.Fatalf("hold list not drained: %d pending", len(f.verifyHeld))
	}
	if f.Verify.Held == 0 || f.Verify.Committed < 2 {
		t.Fatalf("gate stats %+v, want a hold and two commits", f.Verify)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
}

// TestVerifiedAbandonAfterRetries: a held flip with a tight retry budget is
// dropped as a final rejection — and never re-parked by later evidence.
func TestVerifiedAbandonAfterRetries(t *testing.T) {
	r := start(t, holdTrial(3, 8*sim.Second, 8*sim.Second, 8*sim.Second))
	f := r.Fleet
	r.Finish()

	if f.Verify.Abandoned != 1 || len(f.verifyHeld) != 0 {
		t.Fatalf("gate stats %+v pending=%d, want exactly one abandoned hold",
			f.Verify, len(f.verifyHeld))
	}
	if f.Rerouted("sunnyvale", entry) {
		t.Fatal("abandoned flip still committed")
	}
	if f.Verify.Held != 1 {
		t.Fatalf("held %d times, want once (later evidence must not re-park a decided key)",
			f.Verify.Held)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
}

// TestVerifyFallbackModelError: a flip the model cannot evaluate — the
// protected prefix is installed after the model snapshot — must not block
// recovery. The commit goes through unverified, counted as one model error
// and one fallback, and the model keeps the state it can hold.
func TestVerifyFallbackModelError(t *testing.T) {
	tr := grayTrial(42, seattleSunnyvale, verifiedCfg(entry), 2*sim.Second, 8*sim.Second)
	tr.Routes = nil // the entry's only route is the protection, installed after New
	r := start(t, tr)
	f := r.Fleet
	r.Finish()

	if !f.Rerouted("seattle", entry) {
		t.Fatal("model error blocked the reroute — verification made recovery worse")
	}
	if f.Verify.Errors != 1 || f.Verify.Fallbacks != 1 || f.Verify.Checked != 0 || f.Verify.Committed != 0 {
		t.Fatalf("gate stats %+v, want one model error committed as one unchecked fallback", f.Verify)
	}
	if !hasEvent(f, EventVerifyFallback, "model predates it") {
		t.Fatal("no verify-fallback event naming the model error")
	}
	if got := f.Snapshot().Report(); !strings.Contains(got, "verify: on ") || !strings.Contains(got, "fallbacks=1 errors=1") {
		t.Fatalf("report does not show the fallback:\n%s", got)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("model out of sync after fallback: %s", audit)
	}
}

// TestVerifiedHoldSurvivesRestart: correlator crash/restart mid-hold. The
// held flip and the rejection must come back from the checkpoint — the
// restarted incarnation keeps refusing the loop, and the operator unblock
// still works.
func TestVerifiedHoldSurvivesRestart(t *testing.T) {
	r := start(t, holdTrial(1000, 4*sim.Second, 9*sim.Second, 6*sim.Second,
		Fault{At: 3500 * sim.Millisecond, Kind: FaultKillLeader},
		Fault{At: 4 * sim.Second, Kind: FaultRestartKilled}))
	f, s := r.Fleet, r.Sim
	r.Finish()

	if len(f.verifyHeld) != 1 {
		t.Fatalf("held flip lost across restart: pending=%d", len(f.verifyHeld))
	}
	if f.Rerouted("sunnyvale", entry) {
		t.Fatal("restarted correlator committed the rejected loop")
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("audit unsafe after restart: %s", audit)
	}

	s.ScheduleAt(7*sim.Second, func() { f.RestoreEntry("seattle", entry) })
	s.Run(9 * sim.Second)
	if !f.Rerouted("sunnyvale", entry) {
		t.Fatal("held flip did not commit after rollback, post-restart")
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("final audit unsafe: %s", audit)
	}
}

// TestVerifiedNoDoubleCommitAcrossFailover: on the A—B—C line, B's only
// backup for C-bound traffic is A — a loop, since A routes through B. The
// gate rejects it; then the leader is killed. The new leader restores the
// decision log from consensus and must keep refusing the flip for the rest
// of the run, under continuing evidence replay.
func TestVerifiedNoDoubleCommitAcrossFailover(t *testing.T) {
	cfg := replicatedCfg(0.2, entry)
	cfg.Verify = &VerifyConfig{}
	const failAt = 2 * sim.Second
	tr := lineTrial(7, cfg, failAt, 8*sim.Second, Fault{At: failAt + 400*sim.Millisecond, Kind: FaultKillLeader})
	tr.Protect = []Protection{{Switch: "B", Entry: entry, PrimaryTo: "C", BackupTo: "A"}}
	r := start(t, tr)
	f := r.Fleet
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want exactly [B->C]", got)
	}
	if f.Corr.Failovers == 0 {
		t.Fatal("no failover happened; the scenario did not exercise takeover")
	}
	if f.Rerouted("B", entry) {
		t.Fatal("a correlator incarnation committed the rejected loop")
	}
	if f.Verify.Rejected == 0 {
		t.Fatalf("gate stats %+v, want at least one rejection", f.Verify)
	}
	if f.Verify.Committed > 0 || f.Verify.Repaired > 0 || f.Verify.Fallbacks > 0 {
		t.Fatalf("gate stats %+v: something committed a flip with no safe candidate", f.Verify)
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
}

// TestDegradedHandbackDoesNotAdoptLoop is the failover scenario above on
// seeds where B's agent loses the leader for long enough to go degraded and
// make the gate-rejected flip itself. At handback the correlator must check
// that flip, refuse it, and command B back to its primary: the loop must not
// outlive the partition. With a second failover B goes degraded again and
// repeats the flip, which must be reported and refused again.
func TestDegradedHandbackDoesNotAdoptLoop(t *testing.T) {
	const failAt = 2 * sim.Second
	kill := Fault{At: failAt + 400*sim.Millisecond, Kind: FaultKillLeader}
	for _, tc := range []struct {
		seeds  []int64
		faults []Fault
		spells int // degraded-local reroutes each seed must log
	}{
		{[]int64{7, 14, 32, 37}, []Fault{kill}, 1},
		{[]int64{7, 26, 32}, []Fault{kill,
			{At: failAt + 1500*sim.Millisecond, Kind: FaultRestartKilled},
			{At: failAt + 2500*sim.Millisecond, Kind: FaultKillLeader}}, 2},
	} {
		for _, seed := range tc.seeds {
			cfg := replicatedCfg(0.2, entry)
			cfg.Verify = &VerifyConfig{}
			tr := lineTrial(seed, cfg, failAt, 8*sim.Second, tc.faults...)
			tr.Protect = []Protection{{Switch: "B", Entry: entry, PrimaryTo: "C", BackupTo: "A"}}
			r := start(t, tr)
			f := r.Fleet
			r.Finish()

			spells := 0
			for _, ev := range f.Events {
				if ev.Kind == EventRerouted && ev.Detail == "degraded-local" {
					spells++
				}
			}
			if spells < tc.spells {
				t.Fatalf("seed %d: %d degraded-local reroute(s) reported, want %d: the scenario did not exercise handback, or a repeated flip went unreported",
					seed, spells, tc.spells)
			}
			if f.Rerouted("B", entry) {
				t.Fatalf("seed %d: B ends on the looping backup the gate rejected", seed)
			}
			if !hasEvent(f, EventRerouteRejected, "degraded-local") {
				t.Fatalf("seed %d: the degraded flip was not rejected at handback", seed)
			}
			if f.Verify.Fallbacks > 0 {
				t.Fatalf("seed %d: gate stats %+v: the degraded flip was adopted unverified", seed, f.Verify)
			}
			if audit := f.Verifier().Audit(); !audit.Safe() {
				t.Fatalf("seed %d: post-run audit unsafe: %s", seed, audit)
			}
		}
	}
}

// TestRestoredEntryFlipsAgain: an operator restore also clears the
// correlator's record of the entry's flip. When the failure persists and the
// acknowledged link re-localizes, the entry's second flip is a new reroute:
// two EventRerouted, Reroutes 2 and the entry on its backup at the end.
// Before the restore cleared the record, the second flip went unrecorded.
func TestRestoredEntryFlipsAgain(t *testing.T) {
	r := start(t, grayTrial(42, seattleSunnyvale, fleetCfg(entry), 2*sim.Second, 12*sim.Second))
	f := r.Fleet
	r.Sim.ScheduleAt(5*sim.Second, func() {
		f.RestoreEntry("seattle", entry)
		f.Acknowledge("seattle->sunnyvale")
	})
	r.Finish()

	var got []string
	for _, ev := range f.Events {
		if ev.Kind == EventRerouted {
			got = append(got, ev.String())
		}
	}
	want := []string{
		"[2.180000624s] seattle->sunnyvale rerouted entry=10",
		"[5.140001512s] seattle->sunnyvale rerouted entry=10",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rerouted events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if f.Reroutes != 2 || !f.Rerouted("seattle", entry) {
		t.Fatalf("Reroutes=%d rerouted=%v, want 2 and the entry on its backup", f.Reroutes, f.Rerouted("seattle", entry))
	}
}

// TestRestoreHoldsNoUnreportedFlip: a partitioned switch flips an entry in
// degraded mode, and the correlator crashes and restarts before the heal.
// The restored model holds only what the correlator decided or was told, so
// it does not hold that flip: sunnyvale's flip to seattle, a loop only with
// seattle's unreported flip to sunnyvale, checks safe. After the heal the
// report arrives, and the handback adopts the flip as an unverified
// fallback.
func TestRestoreHoldsNoUnreportedFlip(t *testing.T) {
	cfg := verifiedCfg(entry)
	cfg.Mgmt = &mgmt.Config{}
	r := start(t, Trial{
		Seed: 42, Config: cfg, Duration: 8 * sim.Second,
		Spec:   abileneSpec("denver", "seattle"),
		Routes: map[netsim.EntryID]string{entry: "h-denver"},
		Protect: []Protection{
			{Switch: "seattle", Entry: entry, PrimaryTo: "denver", BackupTo: "sunnyvale"},
		},
		Flows: []Flow{{From: "h-seattle", Entry: entry, RateBps: 2e6}},
		Faults: []Fault{
			{At: 1500 * sim.Millisecond, Kind: FaultPartition, Switch: "seattle"},
			grayAt(2*sim.Second, "seattle", "denver", entry),
			{At: 3 * sim.Second, Kind: FaultKillLeader},
			{At: 3500 * sim.Millisecond, Kind: FaultRestartKilled},
			{At: 4 * sim.Second, Kind: FaultHeal, Switch: "seattle"},
		},
	})
	f, n := r.Fleet, r.Net
	loop := verify.NewDelta("probe", []verify.Flip{
		verify.EntryFlip("sunnyvale", entry, n.PortOf["sunnyvale"]["seattle"])})
	checked := false
	r.Sim.ScheduleAt(3600*sim.Millisecond, func() {
		checked = true
		if !f.Rerouted("seattle", entry) || f.Reroutes != 0 || f.Crashed() {
			t.Fatalf("rerouted=%v Reroutes=%d crashed=%v: want an unreported degraded flip and a restored correlator",
				f.Rerouted("seattle", entry), f.Reroutes, f.Crashed())
		}
		v, err := f.Verifier().Check(loop)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Safe() {
			t.Fatalf("restored model holds the unreported flip: %s", v)
		}
	})
	r.Finish()

	if !checked {
		t.Fatal("the mid-partition check did not run")
	}
	if !hasEvent(f, EventRerouted, "degraded-local") || f.Reroutes != 1 {
		t.Fatalf("Reroutes=%d: the degraded flip was not reported once at handback", f.Reroutes)
	}
	if !hasEvent(f, EventVerifyFallback, "degraded-local reroute adopted") || hasEvent(f, EventRerouteRejected, "") {
		t.Fatalf("gate stats %+v: the handback did not adopt the safe degraded flip", f.Verify)
	}
	if v, err := f.Verifier().Check(loop); err != nil || v.Safe() {
		t.Fatalf("after the handback the model must hold the adopted flip: %v, %v", v, err)
	}
}

// TestGateCannotSeeUnreportedFlip pins the answer to the question a gate
// that reads no switch memory must face: it can accept a flip that conflicts
// with a degraded flip it has not heard of yet. Atlanta, partitioned, diverts
// via houston on its own; houston's link then fails under the diverted
// traffic, and the gate, whose model does not hold atlanta's flip, commits
// houston's flip via atlanta: a loop in the data plane until the heal. Only
// atlanta's report can close that gap: at the handback the gate checks the
// flip against houston's, refuses it, and sends atlanta back to its primary.
func TestGateCannotSeeUnreportedFlip(t *testing.T) {
	cfg := verifiedCfg(entry)
	cfg.Mgmt = &mgmt.Config{}
	r := start(t, Trial{
		Seed: 42, Config: cfg, Duration: 8 * sim.Second,
		Spec:   abileneSpec("kansascity", "washington"),
		Routes: map[netsim.EntryID]string{entry: "h-kansascity"},
		Protect: []Protection{
			{Switch: "atlanta", Entry: entry, PrimaryTo: "indianapolis", BackupTo: "houston"},
			{Switch: "houston", Entry: entry, PrimaryTo: "kansascity", BackupTo: "atlanta"},
		},
		Flows: []Flow{{From: "h-washington", Entry: entry, RateBps: 2e6}},
		Faults: []Fault{
			{At: 1500 * sim.Millisecond, Kind: FaultPartition, Switch: "atlanta"},
			grayAt(2*sim.Second, "atlanta", "indianapolis", entry),
			grayAt(2*sim.Second, "houston", "kansascity", entry),
			{At: 5 * sim.Second, Kind: FaultHeal, Switch: "atlanta"},
		},
	})
	f := r.Fleet
	looped := false
	r.Sim.ScheduleAt(4*sim.Second, func() {
		looped = f.Rerouted("atlanta", entry) && f.Rerouted("houston", entry) &&
			f.Verify.Committed == 1 && countEvents(f, EventRerouted, "atlanta->indianapolis") == 0
	})
	r.Finish()

	if !looped {
		t.Fatal("at 4 s the gate had not committed houston's flip over atlanta's unreported one")
	}
	if f.Rerouted("atlanta", entry) || !f.Rerouted("houston", entry) {
		t.Fatalf("atlanta rerouted=%v houston rerouted=%v: the handback must refuse atlanta's flip",
			f.Rerouted("atlanta", entry), f.Rerouted("houston", entry))
	}
	if !hasEvent(f, EventRerouteRejected, "degraded-local reroute: unsafe") {
		t.Fatal("atlanta's degraded flip was not refused at the handback")
	}
	if audit := f.Verifier().Audit(); !audit.Safe() {
		t.Fatalf("post-run audit unsafe: %s", audit)
	}
}
