package fleet

// Tests of the replica-owned durable frame: acceptors and the promise choice
// rank accepted entries as Paxos does (ballot first, index second), and a
// restart with no successor restores from the replica's own accepted entry.

import (
	"testing"

	"fancy/internal/mgmt"
	"fancy/internal/sim"
)

// TestConsensusAcceptorOrdersByBallotFirst: an acceptor holding (index 12,
// ballot 0) is handed (index 11, ballot 4) — a new leader reusing an index
// below an older ballot's entry — in an Accept and in a leader's beat. It
// must adopt the entry and ack 11 under ballot 4. Ranking by index first
// kept entry 12 and acked 12, which the leader counts as holding its own.
func TestConsensusAcceptorOrdersByBallotFirst(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kind, ack consKind
	}{
		{"accept", consAccept, consAccepted},
		{"beat", consBeat, consBeat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := start(t, lineTrial(1, replicatedCfg(0, entry), sim.Second, sim.Second))
			const leader = 1 // ballot 4 is replica 1's in a group of three
			acceptor := r.Fleet.group.replicas[2]
			acceptor.acc = &logEntry{Index: 12, Ballot: 0, Note: []byte("old")}
			e := &logEntry{Index: 11, Ballot: 4, Note: []byte("new")}
			acceptor.handle(&consMsg{Kind: tc.kind, Ballot: 4, Index: 11, Entry: e}, leader)

			if a := acceptor.acc; a.Index != 11 || a.Ballot != 4 {
				t.Errorf("acceptor holds (index %d, ballot %d), want (11, 4)", a.Index, a.Ballot)
			}
			want := consMsg{Kind: tc.ack, From: 2, Ballot: 4, Index: 11}
			if m := acceptor.sent[leader].m; m != want {
				t.Errorf("acceptor answered %+v, want %+v", m, want)
			}
		})
	}
}

// TestConsensusPromiseChoiceOrdersByBallotFirst: a candidate with no entry
// of its own wins on promises carrying (index 12, ballot 0) and (index 11,
// ballot 4). Paxos's value choice takes the highest ballot, so the takeover
// restores the ballot-4 frame — here the one taken after the verdict, while
// the ballot-0 frame predates the failure.
func TestConsensusPromiseChoiceOrdersByBallotFirst(t *testing.T) {
	cfg := replicatedCfg(0, entry)
	cfg.Replicas = 5 // a quorum of three: the candidate and both promises
	r := start(t, lineTrial(5, cfg, 2*sim.Second, 3*sim.Second))
	f := r.Fleet
	var early *logEntry
	r.Sim.ScheduleAt(1500*sim.Millisecond, func() { early = f.active().acc })
	r.Finish()
	late := f.active().acc
	if early == nil || late == nil || len(f.Localized()) != 1 {
		t.Fatalf("entries before and after the verdict: %v, %v; localized %v", early, late, f.Localized())
	}

	const ballot = 7 // replica 2's in a group of five
	c := f.group.replicas[2]
	c.acc, c.promised, c.campaign, c.promises = nil, ballot, ballot, make(map[int]*consMsg)
	for from, e := range map[int]*logEntry{
		0: {Index: 12, Ballot: 0, Cp: early.Cp},
		1: {Index: 11, Ballot: 4, Cp: late.Cp},
	} {
		c.handle(&consMsg{Kind: consPromise, Ballot: ballot, AccBallot: e.Ballot, Index: e.Index, Entry: e}, from)
	}

	if f.Leader() != c.name {
		t.Fatalf("leader %s after a promise quorum for %s", f.Leader(), c.name)
	}
	if got := f.Localized(); len(got) != 1 || got[0] != "B->C" {
		t.Fatalf("takeover restored a frame localizing %v, want the ballot-4 frame's [B->C]", got)
	}
}

// TestRestartReplicaRestoresOwnFrame: a crashed active replica restarted
// with no successor elected restores from its own accepted entry, in a
// group of one (over management and direct) and of three. While it is down
// the test puts a frame from before the failure into its entry, so only a
// restore that reads the entry comes back without the verdict.
func TestRestartReplicaRestoresOwnFrame(t *testing.T) {
	direct := fleetCfg(entry)
	direct.Mgmt = nil
	for name, cfg := range map[string]Config{
		"one/mgmt":   mgmtCfg(mgmt.Config{}, entry),
		"one/direct": direct,
		"three":      replicatedCfg(0, entry),
	} {
		t.Run(name, func(t *testing.T) {
			r := start(t, lineTrial(19, cfg, 2*sim.Second, 3*sim.Second))
			f, s := r.Fleet, r.Sim
			var early *logEntry
			s.ScheduleAt(1500*sim.Millisecond, func() { early = f.active().acc })
			s.ScheduleAt(2600*sim.Millisecond, func() {
				if early == nil || len(f.Localized()) != 1 {
					t.Fatalf("entry before the failure %v, localized %v — timing assumption broken", early, f.Localized())
				}
				id := f.KillLeader()
				f.group.replicas[id].acc = early
				f.RestartReplica(id)
				if f.Crashed() || f.group.active != id {
					t.Fatalf("replica %d not back as the active one", id)
				}
				if got := f.Localized(); len(got) != 0 {
					t.Fatalf("restart restored a frame localizing %v, not the replica's own entry", got)
				}
			})
			r.Finish()
		})
	}
}
