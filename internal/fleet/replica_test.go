package fleet

// Replicated-correlator tests: consensus verdict log over the lossy
// management network, phi-driven leader failover, partition-heal handback
// to a different leader, quorum-loss degraded fallback, and same-seed
// determinism of the whole replicated control plane.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

// replicatedCfg is the common 3-replica config over a lossy channel.
func replicatedCfg(loss float64, entries ...netsim.EntryID) Config {
	cfg := fleetCfg(entries...)
	cfg.Mgmt = &mgmt.Config{Loss: loss, Duplicate: loss / 2, Jitter: sim.Millisecond}
	cfg.Replicas = 3
	return cfg
}

// TestReplicatedLocalization: with a healthy 3-replica group and 20% loss,
// verdicts travel the consensus log and localization stays exact — one
// verdict, committed through a quorum, no failovers.
func TestReplicatedLocalization(t *testing.T) {
	r := start(t, lineTrial(42, replicatedCfg(0.2, entry), 2*sim.Second, 8*sim.Second))
	f := r.Fleet
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want exactly [B->C]", got)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want exactly 1", nLoc)
	}
	snap := f.Snapshot()
	if !snap.Replicated || snap.Leader != "corr0" {
		t.Fatalf("Replicated=%v Leader=%q, want replicated under corr0", snap.Replicated, snap.Leader)
	}
	if snap.CommitIndex == 0 {
		t.Fatal("nothing committed through the consensus log")
	}
	if f.Corr.Failovers != 0 {
		t.Fatalf("Failovers=%d with a healthy leader, want 0 (spurious election churn)", f.Corr.Failovers)
	}
	// Every replica must hold a recent accepted entry (log replication +
	// built-in compaction actually propagating state).
	for _, rr := range snap.Replicas {
		if rr.AccIndex == 0 {
			t.Fatalf("replica %s never accepted an entry: %+v", rr.Name, rr)
		}
	}
}

// TestLeaderFailover is the tentpole scenario: the leader is killed under
// 20% loss before the verdict window closes; a follower detects the silence
// via phi, wins the election, restores from the replicated log and finishes
// the verdict — exactly once, with agents redirected to the new leader.
func TestLeaderFailover(t *testing.T) {
	const failAt = 2 * sim.Second
	r := start(t, lineTrial(7, replicatedCfg(0.2, entry), failAt, 8*sim.Second))
	f := r.Fleet
	// Kill the leader shortly after the failure starts alarming: the crash
	// lands around the open evidence window, the worst time to lose state.
	r.Sim.ScheduleAt(failAt+100*sim.Millisecond, func() {
		if id := f.KillLeader(); id != 0 {
			t.Errorf("KillLeader killed replica %d, want 0 (corr0 leads at boot)", id)
		}
	})
	r.Finish()

	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v, want exactly [B->C] across the failover", got)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want exactly 1 (no duplicate verdicts)", nLoc)
	}
	if f.Corr.Failovers == 0 || !hasEvent(f, EventLeaderElected, "ballot") {
		t.Fatalf("no leader takeover recorded: Failovers=%d", f.Corr.Failovers)
	}
	snap := f.Snapshot()
	if snap.Leader == "corr0" {
		t.Fatalf("leader still %s after killing it", snap.Leader)
	}
	// Agents must have discovered the new leader (redirects or rotation)
	// and resumed reporting: the fleet is not in degraded local mode.
	for _, ar := range snap.Agents {
		if ar.Degraded {
			t.Fatalf("agent %s still degraded after failover", ar.Switch)
		}
	}
	if !snap.QuorumDegraded && f.Crashed() {
		t.Fatal("fleet still marked crashed after a successful takeover")
	}
}

// TestFailoverTTL bounds the control-plane outage: from leader kill to the
// first post-takeover verdict must stay within a small multiple of the
// detection timescale (phi horizon + election + restore + re-opened
// window), not the multi-second restart of the single-instance path.
func TestFailoverTTL(t *testing.T) {
	const failAt = 2 * sim.Second
	const killAt = failAt + 100*sim.Millisecond
	r := start(t, lineTrial(11, replicatedCfg(0.1, entry), failAt, 8*sim.Second,
		Fault{At: killAt, Kind: FaultKillLeader}))
	f := r.Fleet
	r.Finish()
	var electedAt sim.Time
	for _, ev := range f.Events {
		if ev.Kind == EventLeaderElected {
			electedAt = ev.Time
			break
		}
	}
	if electedAt == 0 {
		t.Fatal("no takeover happened")
	}
	if d := electedAt - killAt; d > 500*sim.Millisecond {
		t.Fatalf("takeover took %v after the kill, want well under 500ms", d)
	}
	ttl := f.LocalizedAt("B->C") - failAt
	if ttl <= 0 || ttl > 2*sim.Second {
		t.Fatalf("time-to-localize %v across a leader kill, want bounded", ttl)
	}
}

// TestPartitionHealReconcileToNewLeader: a switch goes degraded behind a
// partition, reroutes locally, and while it is unreachable the leader dies
// and a different replica takes over. After the heal the agent must hand
// gating back to the NEW leader — one confirmed verdict, one recorded
// reroute, one handback, no duplicates and nothing lost.
func TestPartitionHealReconcileToNewLeader(t *testing.T) {
	const partitionAt = 1500 * sim.Millisecond
	const failAt = 2 * sim.Second
	const killAt = 2200 * sim.Millisecond
	const healAt = 3500 * sim.Millisecond
	cfg := mgmtCfg(mgmt.Config{}, 10, 11)
	cfg.Replicas = 3
	r := start(t, grayTrial(31, seattleSunnyvale, cfg, failAt, 8*sim.Second,
		Fault{At: partitionAt, Kind: FaultPartition, Switch: "seattle"},
		Fault{At: killAt, Kind: FaultKillLeader},
		Fault{At: healAt, Kind: FaultHeal, Switch: "seattle"}))
	f := r.Fleet
	r.Sim.ScheduleAt(healAt-sim.Millisecond, func() {
		if f.Leader() == "corr0" {
			t.Error("no failover before the heal — scenario broken")
		}
		if !f.Rerouted("seattle", entry) {
			t.Error("degraded-mode local reroute did not engage during the partition")
		}
	})
	r.Finish()

	if f.agents["seattle"].degraded {
		t.Fatal("agent still degraded after the heal")
	}
	if f.Leader() == "corr0" {
		t.Fatalf("leader is %s, want a different replica after the kill", f.Leader())
	}
	// Every agent briefly degrades during the failover gap (the new leader
	// takes tens of milliseconds to elect) and reconciles on discovery, so
	// the fleet-wide handback count exceeds one — but the partitioned
	// switch itself must hand its long degraded spell back EXACTLY once,
	// to the new leader.
	if f.Corr.Handbacks == 0 {
		t.Fatal("no reconcile reached the new leader")
	}
	if n := countEvents(f, EventDegradedHandback, "seattle"); n != 1 {
		t.Fatalf("%d handbacks from seattle, want exactly 1", n)
	}
	if !hasEvent(f, EventDegradedHandback, "local reroute(s)") {
		t.Fatal("no degraded-mode handback recorded at the new leader")
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "seattle->sunnyvale" {
		t.Fatalf("localized %v, want exactly [seattle->sunnyvale]", got)
	}
	if nLoc := r.Verdicts("seattle->sunnyvale"); nLoc != 1 {
		t.Fatalf("%d localization events, want exactly 1 (no duplicate verdicts)", nLoc)
	}
	if f.Reroutes != 1 {
		t.Fatalf("Reroutes=%d, want 1 (degraded reroute recorded once at the new leader)", f.Reroutes)
	}
	// The agent found the new leader via redirect/rotation, not luck.
	snap := f.Snapshot()
	for _, ar := range snap.Agents {
		if ar.Switch == "seattle" && ar.Stats.Redirects == 0 && ar.Stats.Rotations == 0 {
			t.Fatal("seattle reconciled without any redirect or endpoint rotation — leader discovery not exercised")
		}
	}
}

// TestQuorumLossDegradedFallback: with both followers dead the leader
// cannot commit through the log; it must detect the loss, degrade to
// single-instance checkpointing (PR 3 semantics) without blocking verdicts,
// and resume replicated commits when the followers return.
func TestQuorumLossDegradedFallback(t *testing.T) {
	r := start(t, lineTrial(13, replicatedCfg(0, entry), 2*sim.Second, 8*sim.Second))
	f, s := r.Fleet, r.Sim
	// Followers, not the leader: no Fault kind kills those.
	s.ScheduleAt(1500*sim.Millisecond, func() {
		f.CrashReplica(1)
		f.CrashReplica(2)
	})
	s.ScheduleAt(3*sim.Second, func() {
		if !f.active().quorumLost {
			t.Error("leader did not notice losing both followers")
		}
		if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
			t.Errorf("localized %v during quorum loss, want [B->C] (degraded commits must not block)", got)
		}
	})
	s.ScheduleAt(4*sim.Second, func() {
		f.RestartReplica(1)
		f.RestartReplica(2)
	})
	r.Finish()

	if f.active().quorumLost {
		t.Fatal("quorum not restored after both followers returned")
	}
	if f.Corr.QuorumLosses != 1 {
		t.Fatalf("QuorumLosses=%d, want exactly 1", f.Corr.QuorumLosses)
	}
	if !hasEvent(f, EventQuorumLost, "single-instance") || !hasEvent(f, EventQuorumRestored, "resuming") {
		t.Fatal("quorum loss/restore transitions not surfaced as events")
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events, want 1", nLoc)
	}
	if f.Corr.Failovers != 0 {
		t.Fatalf("Failovers=%d, want 0 (a minority cannot elect)", f.Corr.Failovers)
	}
	// Restarted followers catch up from the leader's beats.
	snap := f.Snapshot()
	for _, rr := range snap.Replicas {
		if rr.Crashed {
			t.Fatalf("replica %s still crashed", rr.Name)
		}
		if rr.AccIndex == 0 {
			t.Fatalf("replica %s never caught up after restart", rr.Name)
		}
	}
}

// dropFirstAccept is a fault hook over a perfect management network: it
// drops the leader's first Accept to one follower, found by decoding the
// consensus payloads, and watches what the leader sends that follower next.
type dropFirstAccept struct {
	t                *testing.T
	leader, follower string
	rx               logEntry
	dropped          uint64 // the dropped Accept's index, 0 until dropped
	resent           bool   // a beat has re-carried the dropped entry
	acceptsBetween   int    // Accepts to the follower after the drop, before the resend
}

func (h *dropFirstAccept) Fate(d mgmt.Dgram, _ float64, _ sim.Time) (bool, sim.Time, sim.Time) {
	if d.Kind != mgmt.DgramConsensus || d.From != h.leader || d.To != h.follower {
		return false, 0, 0
	}
	m, err := decodeConsensus(d.Payload.([]byte), &h.rx)
	switch {
	case err != nil:
		h.t.Errorf("the leader sent a consensus payload that does not decode: %v", err)
	case m.Kind == consAccept && h.dropped == 0:
		h.dropped = m.Index
		return true, 0, 0
	case m.Kind == consAccept && !h.resent:
		h.acceptsBetween++
	case m.Kind == consBeat && h.dropped != 0 && m.Entry != nil && m.Entry.Index == h.dropped:
		h.resent = true
	}
	return false, 0, 0
}

// TestFaultHookDroppedAcceptCatchesUpByBeat: the leader's first Accept to
// corr1 is lost. The entry still commits on corr2's acknowledgment, corr1
// catches up from the next beat that re-carries it — before any later
// Accept could paper over the gap — and the gray link gets its one verdict.
func TestFaultHookDroppedAcceptCatchesUpByBeat(t *testing.T) {
	r := start(t, lineTrial(3, replicatedCfg(0, entry), sim.Second, 3*sim.Second))
	f := r.Fleet
	h := &dropFirstAccept{t: t, leader: "corr0", follower: "corr1"}
	f.mgmtNet.SetFaultHook(h)
	r.Finish()

	if h.dropped == 0 || !h.resent || h.acceptsBetween != 0 {
		t.Fatalf("dropped entry %d, re-carried by a beat %v, %d Accepts to corr1 in between; want a drop repaired by the next beat",
			h.dropped, h.resent, h.acceptsBetween)
	}
	snap := f.Snapshot()
	t.Logf("dropped entry %d; commit index %d at the end", h.dropped, snap.CommitIndex)
	if snap.CommitIndex <= h.dropped || snap.Replicas[1].AccIndex < h.dropped || f.mgmtNet.Stats.Lost != 1 || f.Corr.Failovers != 0 {
		t.Fatalf("commit index %d, corr1 at %d (dropped %d), %d datagrams lost, %d failovers; want commits past the drop, one loss, no failover",
			snap.CommitIndex, snap.Replicas[1].AccIndex, h.dropped, f.mgmtNet.Stats.Lost, f.Corr.Failovers)
	}
	if n := r.Verdicts("B->C"); n != 1 {
		t.Fatalf("%d localization events for B->C, want exactly 1", n)
	}
}

// assassinate is repeated leader assassination as data: at each time the
// replica killed the round before rejoins and whoever leads now is killed.
func assassinate(at ...sim.Time) []Fault {
	var faults []Fault
	for _, t := range at {
		faults = append(faults, Fault{At: t, Kind: FaultRestartKilled}, Fault{At: t, Kind: FaultKillLeader})
	}
	return faults
}

// TestReplicaCrashSoak: repeated leader assassination — every elected
// leader is killed in turn and the previous one restarted — must never
// lose or duplicate the confirmed verdict.
func TestReplicaCrashSoak(t *testing.T) {
	var rounds []sim.Time
	for at := 2200 * sim.Millisecond; at <= 9*sim.Second; at += 1200 * sim.Millisecond {
		rounds = append(rounds, at)
	}
	kills := len(rounds)
	r := start(t, lineTrial(17, replicatedCfg(0.1, entry), 2*sim.Second, 12*sim.Second, assassinate(rounds...)...))
	f := r.Fleet
	r.Finish()

	if kills < 3 {
		t.Fatalf("only %d leader kills executed — soak too short", kills)
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("localized %v after %d leader kills, want exactly [B->C]", got, kills)
	}
	if nLoc := r.Verdicts("B->C"); nLoc != 1 {
		t.Fatalf("%d localization events after %d kills, want exactly 1", nLoc, kills)
	}
	if int(f.Corr.Failovers) < kills-1 {
		t.Fatalf("Failovers=%d after %d kills, want at least %d", f.Corr.Failovers, kills, kills-1)
	}
}

// TestReplicatedDeterminism: the full replicated control plane — elections,
// log replication, failover, redirects — must replay byte-identically under
// the same seed.
func TestReplicatedDeterminism(t *testing.T) {
	run := func() string {
		r := start(t, lineTrial(23, replicatedCfg(0.25, entry), 2*sim.Second, 6*sim.Second,
			Fault{At: 2300 * sim.Millisecond, Kind: FaultKillLeader},
			Fault{At: 3100 * sim.Millisecond, Kind: FaultRestartKilled}))
		f := r.Fleet
		r.Finish()
		var b strings.Builder
		b.WriteString(f.Snapshot().Report())
		for _, ev := range f.Events {
			fmt.Fprintf(&b, "%v %v %s %s\n", ev.Time, ev.Kind, ev.Link, ev.Detail)
		}
		return b.String()
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("non-deterministic replicated fleet:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
	}
}

// TestReplicasRequireMgmt: a replica group without a management network is
// a configuration error, not a silent fallback.
func TestReplicasRequireMgmt(t *testing.T) {
	cfg := fleetCfg(10)
	cfg.Replicas = 3
	if _, err := lineTrial(1, cfg, 0, 0).Start(); err == nil {
		t.Fatal("New accepted Replicas=3 without Config.Mgmt")
	}
}

// consensusCounter is a fault hook over a perfect management network that
// counts the consensus datagrams offered to it and decides nothing.
type consensusCounter struct{ n int }

func (c *consensusCounter) Fate(d mgmt.Dgram, _ float64, _ sim.Time) (bool, sim.Time, sim.Time) {
	if d.Kind == mgmt.DgramConsensus {
		c.n++
	}
	return false, 0, 0
}

// TestLoneReplicaLifecycle: a single-instance correlator is a replica group
// of one, so the replica API is the correlator API — KillLeader crashes it,
// RestartReplica(0) restores from its frame — over the management plane and
// in direct mode alike, and nothing that needs a peer (tick, replication,
// election) ever happens: no consensus datagram is sent, no tick is armed.
func TestLoneReplicaLifecycle(t *testing.T) {
	for name, mg := range map[string]*mgmt.Config{"mgmt": {}, "direct": nil} {
		t.Run(name, func(t *testing.T) {
			cfg := fleetCfg(entry)
			cfg.Mgmt = mg
			r := start(t, lineTrial(19, cfg, 2*sim.Second, 8*sim.Second))
			f, s := r.Fleet, r.Sim
			var sent consensusCounter
			if f.mgmtNet != nil {
				f.mgmtNet.SetFaultHook(&sent)
			}

			// Crash after the verdict (~2.2 s) and the 2.5 s checkpoint.
			s.ScheduleAt(2600*sim.Millisecond, func() {
				if len(f.Localized()) != 1 {
					t.Fatal("failure not localized before the crash — timing assumption broken")
				}
				if id := f.KillLeader(); id != 0 || !f.Crashed() {
					t.Fatalf("KillLeader = %d, crashed=%v; want replica 0 down", id, f.Crashed())
				}
				f.CrashReplica(0) // already down: must not count a second crash
			})
			s.ScheduleAt(3200*sim.Millisecond, func() {
				f.RestartReplica(0)
				if f.Crashed() {
					t.Fatal("RestartReplica(0) did not bring the correlator back")
				}
				if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
					t.Fatalf("verdict lost across crash/restart: %v", got)
				}
				f.RestartReplica(0) // already up: must not restore again
			})
			r.Finish()

			if f.Leader() != correlatorEndpoint || f.active().quorumLost {
				t.Fatalf("leader %q, quorum degraded %v; want %q with nothing to lose",
					f.Leader(), f.active().quorumLost, correlatorEndpoint)
			}
			if nLoc := r.Verdicts("B->C"); nLoc != 1 {
				t.Fatalf("%d localization events, want 1", nLoc)
			}
			if c := f.Corr; c.Crashes != 1 || c.Restores != 1 || c.Checkpoints == 0 ||
				c.Elections != 0 || c.Failovers != 0 || c.QuorumLosses != 0 {
				t.Fatalf("lifecycle counters %+v, want 1 crash, 1 restore, checkpoints, no consensus activity", c)
			}
			if countEvents(f, EventLeaderElected, "") != 0 {
				t.Fatal("a lone replica held an election")
			}
			for _, ev := range f.Events {
				if ev.Kind == EventCorrelatorCrash && (ev.Link != correlatorEndpoint || ev.Detail != "") {
					t.Fatalf("crash event %v, want link %q and no role detail", ev, correlatorEndpoint)
				}
			}
			if !hasEvent(f, EventCorrelatorRestart, "checkpoint at") {
				t.Fatal("restart did not restore from the last frame")
			}
			if r := f.group.replicas[0]; r.tickTimer != (sim.Timer{}) || sent.n != 0 {
				t.Fatalf("lone replica ticked or replicated: tick ever armed %v, %d consensus datagrams sent", r.tickTimer != (sim.Timer{}), sent.n)
			}
			if snap := f.Snapshot(); snap.Replicated || snap.Leader != "" || snap.CommitIndex != 0 || snap.Replicas != nil {
				t.Fatalf("snapshot carries a replication block for a group of one: %+v", snap)
			}
		})
	}
}

// exactlyOnceCfg is the control plane the benchmark's abilene-ctrl-chaos
// workload was designed around: three replicas over 20 % management loss.
func exactlyOnceCfg() Config {
	cfg := replicatedCfg(0.2, entry)
	cfg.Mgmt.Duplicate = 0.01
	return cfg
}

// assertExactlyOnce is the verdict contract: dl, only dl, announced once.
func assertExactlyOnce(t *testing.T, r *Run, dl topo.DirectedLink) {
	t.Helper()
	if got := r.Fleet.Localized(); len(got) != 1 || got[0] != dl.String() {
		t.Fatalf("localized %v, want exactly [%s]", got, dl)
	}
	if nLoc := r.Verdicts(dl.String()); nLoc != 1 {
		t.Fatalf("%d localization events for %s, want exactly 1", nLoc, dl)
	}
}

// TestExactlyOnceAcrossStepDown pins the duplicate verdict the benchmark
// found (ROADMAP item 1a): on these seeds of the 40 × 28 Abilene sweep
// (seed s·1000 + link index; leader killed 100 ms after the failure, back
// 300 ms later) two candidates duel after the kill, the winner is deposed by
// a stale ballot while it still drives the fleet, commits a verdict locally
// and then wins again — and used to restore a frame from before that verdict
// and announce it a second time (or, on 13000, lose it).
func TestExactlyOnceAcrossStepDown(t *testing.T) {
	faults := []Fault{
		{At: sim.Second + 100*sim.Millisecond, Kind: FaultKillLeader},
		{At: sim.Second + 400*sim.Millisecond, Kind: FaultRestartKilled},
	}
	for _, tc := range []struct {
		seed int64
		dl   topo.DirectedLink
	}{
		{10010, topo.DirectedLink{From: "houston", To: "losangeles"}},
		{10017, topo.DirectedLink{From: "losangeles", To: "houston"}},
		{13000, topo.DirectedLink{From: "atlanta", To: "houston"}},
		{13014, topo.DirectedLink{From: "kansascity", To: "denver"}},
		{14009, topo.DirectedLink{From: "houston", To: "kansascity"}},
		{20024, topo.DirectedLink{From: "sunnyvale", To: "losangeles"}},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			t.Parallel()
			r := start(t, grayTrial(tc.seed, tc.dl, exactlyOnceCfg(), sim.Second, 3*sim.Second, faults...))
			r.Finish()
			assertExactlyOnce(t, r, tc.dl)
		})
	}
}

// soakReplicaOne is one seeded replica-chaos pass over the topology the
// benchmark uses: a seed-derived assassination schedule — the first kill
// inside the 200 ms after the failure where elections race the verdict, the
// dead replica rejoining at the next kill — runs against every directed link
// of Abilene in turn under 20% management loss, and the exactly-once verdict
// contract is checked at the end regardless of how the kills landed.
func soakReplicaOne(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var rounds []sim.Time
	for at := sim.Second + sim.Time(rng.Int63n(int64(200*sim.Millisecond))); at < 3*sim.Second; {
		rounds = append(rounds, at)
		at += 800*sim.Millisecond + sim.Time(rng.Int63n(int64(sim.Second)))
	}
	kills, faults := len(rounds), assassinate(rounds...)
	if kills < 2 {
		t.Fatalf("only %d leader kills executed — soak schedule broken", kills)
	}
	t.Logf("leader killed at %v", rounds)
	for i, l := range topo.Abilene().Links {
		for j, dl := range []topo.DirectedLink{{From: l.A, To: l.B}, {From: l.B, To: l.A}} {
			r := start(t, grayTrial(seed*1000+int64(2*i+j), dl, exactlyOnceCfg(), sim.Second, 4*sim.Second, faults...))
			r.Finish()
			assertExactlyOnce(t, r, dl)
		}
	}
}

// TestReplicaCrashSoakSeeds drives soakReplicaOne over a batch of seeds. The
// default batch rides along in regular CI; the nightly workflow widens it
// via FANCY_REPLICA_SOAK_RUNS and adds the race detector. Every trial is
// fully deterministic, so a green batch stays green.
func TestReplicaCrashSoakSeeds(t *testing.T) {
	runs := 6
	if v := os.Getenv("FANCY_REPLICA_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FANCY_REPLICA_SOAK_RUNS=%q: %v", v, err)
		}
		runs = n
	}
	for i := 0; i < runs; i++ {
		seed := int64(5000 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			soakReplicaOne(t, seed)
		})
	}
}

// TestConsensusReceiptDoesNotAllocate pins the consensus transport's steady
// state at zero heap objects: checking a 28-link Abilene state frame in
// place, the leader handling a beat-ack and an Accepted, and the leader's
// beat re-carrying its accepted entry to a lagging, partitioned peer — the
// encoding made and boxed once, then shared. (What the network does with a
// datagram it delivers is mgmt.TestHeartbeatIntervalDoesNotAllocate's.)
func TestConsensusReceiptDoesNotAllocate(t *testing.T) {
	r := start(t, grayTrial(42, seattleSunnyvale, replicatedCfg(0.02, entry), 2*sim.Second, 4*sim.Second))
	f, g := r.Fleet, r.Fleet.group
	r.Finish()
	leader := g.leader()
	if leader == nil || leader.acc == nil {
		t.Fatal("no leader with an accepted entry at the end of the run")
	}
	frame := leader.acc.Cp
	var st corrState
	if err := decodeState(frame, &st); err != nil || len(st.links) != 28 || st.Localizations != 1 {
		t.Fatalf("leader's frame: %v, %d links, %d localizations; want a 28-link frame with the verdict",
			err, len(st.links), st.Localizations)
	}

	peer, lagging := (leader.id+1)%g.n, (leader.id+2)%g.n
	deliver := func(m consMsg) func() {
		m.From = uint8(peer)
		d := mgmt.Dgram{From: g.replicas[peer].name, To: leader.name, Kind: mgmt.DgramConsensus,
			Payload: encodeConsensus(&m)}
		return func() { leader.intercept(d) }
	}
	ack := consMsg{Kind: consBeat, Ballot: leader.ballot, Index: leader.acc.Index}
	deliver(ack)() // commits whatever the run left pending
	if len(leader.pending) != 0 {
		t.Fatalf("%d entries still pending after an ack covering them", len(leader.pending))
	}
	for _, name := range []string{g.replicas[peer].name, g.replicas[lagging].name} {
		f.mgmtNet.Partition(name)
	}
	leader.lastAcked[lagging] = 0
	rejects, sent := f.Corr.WireRejects, f.mgmtNet.Stats.Sent

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"check a 28-link frame", func() {
			if decodeState(frame, nil) != nil {
				t.Error("the leader's own frame does not check")
			}
		}},
		{"beat-ack", deliver(ack)},
		{"accepted", deliver(consMsg{Kind: consAccepted, Ballot: leader.ballot, Index: leader.acc.Index})},
		{"beat retransmit to a lagging peer", leader.beatPeers},
	} {
		// AllocsPerRun rounds its average down, so count a thousand as one
		// run: a single object anywhere shows.
		const n = 1000
		if total := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				tc.run()
			}
		}); total != 0 {
			t.Errorf("%s: %d times allocate %.0f objects, want 0", tc.name, n, total)
		}
	}
	if f.Corr.WireRejects != rejects {
		t.Errorf("%d datagrams rejected", f.Corr.WireRejects-rejects)
	}
	if got := f.mgmtNet.Stats.Sent - sent; got != 2*2*1000 {
		t.Errorf("%d beats offered to the network, want 2 peers × 2 runs × 1000", got)
	}
	if m := leader.sent[lagging].m; m.Entry != leader.acc {
		t.Errorf("the lagging peer was last sent %+v, not a beat carrying the accepted entry", m)
	}
}
