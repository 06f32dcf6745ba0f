package fleet

// The correlator group: a Paxos-style consensus group (in the spirit of
// "Paxos Made Switch-y") whose replicated log carries full correlator
// state frames over the lossy management network. As there, an acceptor
// stores and forwards the value as opaque bytes under a fixed header: a
// receiver checks the frame in place and builds nothing from it, and only a
// replica taking over decodes it (restoreState).
//
// The correlator is ALWAYS such a group, and this file is its one lifecycle
// (crash, restart, commit). A single-instance correlator is the degenerate
// group of one: its lone replica is the leader of ballot 0 for good, keeps
// the endpoint name "correlator" (the management network seeds one RNG per
// endpoint-name pair), has no server in direct mode, and does not do the
// three things that need a peer — it arms no tick (nobody to beat, no
// quorum to audit), replicates nothing (a commit is its effects plus a
// self-accept of the new frame) and never elects.
//
// Design, and how it maps onto classic Multi-Paxos with a stable leader:
//
//   - Replicas "corr0".."corrN-1" are ordinary mgmt endpoints; consensus
//     messages are DgramConsensus datagrams with the wire.go encoding and
//     suffer the same loss/delay/duplication/partitions as agent traffic.
//   - Ballot numbers are partitioned by replica id (ballot b belongs to
//     replica b mod N), so two candidates can never collide on a ballot.
//     Replica 0 boots as the established leader of ballot 0.
//   - Every log entry carries a COMPLETE correlator state frame, so entry k
//     subsumes all entries before it. That collapses log replication, log
//     compaction and snapshotting into one mechanism: an acceptor stores
//     only its highest accepted entry, the snapshot is the last committed
//     entry, and the frame carries the transport's sequencing state so
//     report dedup survives failover.
//   - The leader beats every mgmt heartbeat interval; followers feed a
//     phi-accrual detector with beat arrivals and campaign (Prepare /
//     Promise, then a fresh Accept of the best accepted entry) when
//     suspicion crosses the threshold. Followers answer beats with
//     beat-acks, which drive the leader's own per-peer phi detectors.
//   - A leader that loses its acknowledgment quorum for a grace period
//     degrades explicitly to what a group of one always does: commits apply
//     locally (checkpoint/restart semantics) until quorum returns. If the
//     leader itself dies with no electable quorum, agents get no acks,
//     go offline, and fall back to degraded-mode local protection.
//   - The replicas share nothing but the simulated process: each owns its
//     acceptor slot, its log position, its pending proposals and its one
//     durable frame (the accepted entry), and learns the others' only from
//     messages. What they do share is the Fleet state machine itself — the
//     live correlator state, its timers and the agents' reports — which
//     exactly one replica, group.active, drives at a time; takeover halts
//     the previous incarnation's timers, restores from the best accepted
//     entry and so re-aims the server agents report to (Fleet.active),
//     which excludes split-brain by construction. Deposed or non-active
//     replicas answer agent traffic with redirects instead of consuming it.

import (
	"fmt"
	"slices"

	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// quorumGraceTicks is how many consecutive failed quorum checks (one per
// beat interval) a leader tolerates before declaring degraded mode.
const quorumGraceTicks = 3

// electionRetryTicks is the base number of beat intervals a candidate waits
// for promises before campaigning again with a higher ballot; each
// replica's id is added to stagger retries deterministically.
const electionRetryTicks = 5

// pendingEntry is an uncommitted proposal at the leader.
type pendingEntry struct {
	cb    func()       // commit closure (verdict announce, reroute replay)
	acked map[int]bool // peer ids that acknowledged this index
}

// corrGroup is the correlator: N >= 1 replicas, one active. It is wiring
// and which replica drives the Fleet; every protocol fact lives in the
// replica that owns it.
type corrGroup struct {
	f        *Fleet
	n        int
	quorum   int
	replicas []*replica

	active int // replica currently driving the Fleet state machine
}

// The group rides the management plane's clock: the leader beats (and every
// replica ticks) at the heartbeat cadence.
const beat = mgmt.HeartbeatInterval

// replica is one member of the correlator group.
type replica struct {
	g    *corrGroup
	id   int
	name string
	srv  *mgmt.Server // nil in direct mode

	crashed bool

	// Acceptor state — survives a replica crash (stable storage). acc, the
	// highest accepted entry, is the replica's one durable frame: what it
	// answers a Prepare with and what a restart or an election restores.
	promised uint64
	acc      *logEntry

	// Leader state (volatile).
	isLeader     bool
	ballot       uint64
	nextIndex    uint64 // index of the last entry this replica proposed
	commitIndex  uint64 // highest index this replica knows committed
	pending      map[uint64]*pendingEntry
	quorumLost   bool                // leading in degraded single-instance mode
	lastAcked    []uint64            // per-peer highest acknowledged index
	peerPhi      []*mgmt.PhiDetector // per-peer liveness from acks
	quorumMisses int

	// Follower/candidate state (volatile).
	leaderBallot  uint64 // highest leader ballot observed
	leaderPhi     *mgmt.PhiDetector
	campaign      uint64 // my candidate ballot, 0 when not campaigning
	campaignTicks int
	promises      map[int]*consMsg

	tickTimer sim.Timer

	// rx holds the entry of the message being handled: decodeConsensus
	// decodes into it (the network never delivers reentrantly), and a
	// handler that stores the entry keeps a copy.
	rx logEntry
	// sent is, per peer, the last message sent there and its boxed encoding
	// (encoded).
	sent []sentMsg
}

// sentMsg is a message and its encoding, boxed once for every send of it.
type sentMsg struct {
	m       consMsg
	payload any
}

// newCorrGroup builds the replica group, over the fleet's management
// network when there is one. Replica 0 starts as the leader of ballot 0;
// with peers every replica ticks, staggered by replica id so same-tick
// elections resolve deterministically.
func newCorrGroup(f *Fleet, n int) *corrGroup {
	g := &corrGroup{f: f, n: n, quorum: n/2 + 1}
	for i := 0; i < n; i++ {
		name := correlatorEndpoint
		if n > 1 {
			name = fmt.Sprintf("corr%d", i)
		}
		r := &replica{
			g: g, id: i, name: name,
			pending:   make(map[uint64]*pendingEntry),
			lastAcked: make([]uint64, n),
			peerPhi:   make([]*mgmt.PhiDetector, n),
			leaderPhi: mgmt.NewPhi(),
			sent:      make([]sentMsg, n),
		}
		for j := 0; j < n; j++ {
			r.peerPhi[j] = mgmt.NewPhi()
		}
		if f.mgmtNet != nil {
			r.srv = mgmt.NewServer(f.S, f.mgmtNet, r.name)
			r.srv.OnReport = func(from string, _ uint64, payload any) { f.handleReport(from, payload) }
			r.srv.Intercept = r.intercept
		}
		g.replicas = append(g.replicas, r)
	}
	g.replicas[0].isLeader = true
	if n > 1 {
		for i, r := range g.replicas {
			r.tickTimer = f.S.ScheduleTimerActor(beat+sim.Time(i)*(beat/4+1), (*replicaTick)(r))
		}
	}
	return g
}

// active is the replica driving the Fleet state machine: the correlator is
// down exactly when it is, and its server (nil in direct mode) is the one
// agents report to and the correlator reads through.
func (f *Fleet) active() *replica { return f.group.replicas[f.group.active] }

// leader returns the active replica if it currently leads (nil while the
// fleet is between leaders or the active replica is down).
func (g *corrGroup) leader() *replica {
	r := g.f.active()
	if r.isLeader && !r.crashed {
		return r
	}
	return nil
}

// replicating reports whether commits should travel the log: the group has
// peers and a live active leader with its quorum intact.
func (f *Fleet) replicating() bool {
	r := f.group.leader()
	return f.group.n > 1 && r != nil && !r.quorumLost
}

// commit is the one place a decision's external effects (operator alert,
// gating reroute commands) meet durability; the caller has already applied
// the state change. Every commit is a self-accept: the new frame becomes the
// active replica's accepted entry, its one durable home — a frame kept
// anywhere else would let a restart or an election restore state from
// before effects that already ran, and run them again. While
// replicating, the entry also goes out in Accepts and the effects wait for
// the acknowledgment quorum, so nothing externally visible is lost to a
// leader crash. Otherwise — a group of one, a leader without its quorum, or
// one a stale ballot deposed while it still drives the fleet — the effects
// run first and the self-accept is the commit.
func (f *Fleet) commit(note string, effects func()) {
	replicated := f.replicating()
	if !replicated {
		effects()
	}
	cp := f.checkpoint()
	r := f.active()
	r.nextIndex++
	e := &logEntry{Index: r.nextIndex, Ballot: r.ballot, Note: []byte(note), Cp: cp}
	r.acc = e
	if !replicated {
		return
	}
	r.pending[e.Index] = &pendingEntry{cb: effects, acked: make(map[int]bool)}
	for j := 0; j < r.g.n; j++ {
		if j != r.id {
			r.sendTo(j, consMsg{Kind: consAccept, Ballot: r.ballot, Index: e.Index, Entry: e})
		}
	}
}

// sendTo ships one consensus message to a peer over the lossy channel.
func (r *replica) sendTo(peer int, m consMsg) {
	m.From = uint8(r.id)
	r.g.f.mgmtNet.Send(mgmt.Dgram{
		From: r.name, To: r.g.replicas[peer].name,
		Kind: mgmt.DgramConsensus, Payload: r.encoded(peer, m),
	})
}

// encoded returns m's encoding, boxed, from the send memo when peer — or
// another peer — was last sent the same message: an Accept goes to every
// peer, and a Beat re-carries the same entry to a lagging peer every beat.
// Payloads are immutable and receivers alias them, so sharing is safe.
func (r *replica) encoded(peer int, m consMsg) any {
	s := &r.sent[peer]
	if s.payload != nil && s.m == m {
		return s.payload
	}
	*s = sentMsg{m: m}
	for _, o := range r.sent {
		if o.payload != nil && o.m == m {
			s.payload = o.payload
			return s.payload
		}
	}
	s.payload = encodeConsensus(&m)
	return s.payload
}

// intercept sees every datagram reaching this replica's server: consensus
// traffic is consumed here, and agent traffic reaching a non-active replica
// is answered with a redirect to the believed leader.
func (r *replica) intercept(d mgmt.Dgram) bool {
	switch d.Kind {
	case mgmt.DgramConsensus:
		b, ok := d.Payload.([]byte)
		if !ok {
			r.g.f.Corr.WireRejects++
			return true
		}
		m, err := decodeConsensus(b, &r.rx)
		if err != nil {
			r.g.f.Corr.WireRejects++
			return true
		}
		r.handle(&m, int(m.From))
		return true
	case mgmt.DgramReport, mgmt.DgramHeartbeat:
		if r.g.active == r.id && !r.crashed {
			return false // I am the leader: serve it normally
		}
		r.g.f.mgmtNet.Send(mgmt.Dgram{From: r.name, To: d.From, Kind: mgmt.DgramRedirect,
			Seq: d.Seq, Payload: r.leaderHint()})
		return true
	}
	return false
}

// leaderHint names the replica agent traffic should be re-aimed at, or ""
// while this replica itself doubts who leads (mid-election or suspicious).
func (r *replica) leaderHint() string {
	now := r.g.f.S.Now()
	if r.isLeader {
		return r.name
	}
	if r.campaign != 0 || r.leaderPhi.Suspect(now) {
		return ""
	}
	return r.g.replicas[int(r.leaderBallot)%r.g.n].name
}

// replicaTick is the replica as the sim.Actor of its tick timer.
type replicaTick replica

func (r *replicaTick) Fire() { (*replica)(r).tick() }

// tick is a replica's periodic duty: leaders beat peers and audit their
// quorum, followers audit the leader and campaign on suspicion.
func (r *replica) tick() {
	r.tickTimer = r.g.f.S.ScheduleTimerActor(beat, (*replicaTick)(r))
	if r.crashed {
		return
	}
	now := r.g.f.S.Now()
	if r.isLeader {
		r.beatPeers()
		if r.g.active == r.id {
			// Only the replica actually driving the fleet audits the
			// quorum: a deposed leader that has not yet heard the new
			// ballot must not flush the new leader's pending commits.
			r.checkQuorum(now)
		}
		return
	}
	r.checkLeader(now)
}

// beatPeers sends the leader heartbeat, retransmitting the latest accepted
// entry to any peer whose acknowledged index lags it (loss repair and
// crash-rejoin catch-up share this one path).
func (r *replica) beatPeers() {
	g := r.g
	for j := 0; j < g.n; j++ {
		if j == r.id {
			continue
		}
		m := consMsg{Kind: consBeat, Ballot: r.ballot, Index: r.commitIndex}
		if r.acc != nil && r.lastAcked[j] < r.acc.Index {
			m.Entry = r.acc
		}
		r.sendTo(j, m)
	}
}

// checkQuorum counts peers whose acks still look alive; sustained loss of
// the majority flips the group into degraded single-instance mode, and its
// return flips it back (with a fresh entry to catch followers up).
func (r *replica) checkQuorum(now sim.Time) {
	g := r.g
	alive := 1 // self
	for j := 0; j < g.n; j++ {
		if j != r.id && !r.peerPhi[j].Suspect(now) {
			alive++
		}
	}
	if alive >= g.quorum {
		r.quorumMisses = 0
		if r.quorumLost {
			r.quorumLost = false
			g.f.emit(Event{Time: now, Kind: EventQuorumRestored, Link: r.name,
				Entry:  netsim.InvalidEntry,
				Detail: fmt.Sprintf("%d/%d replicas reachable, resuming replicated commits", alive, g.n)})
			g.f.persist() // fresh entry resyncs followers
		}
		return
	}
	r.quorumMisses++
	if !r.quorumLost && r.quorumMisses >= quorumGraceTicks {
		r.quorumLost = true
		g.f.Corr.QuorumLosses++
		g.f.emit(Event{Time: now, Kind: EventQuorumLost, Link: r.name,
			Entry:  netsim.InvalidEntry,
			Detail: fmt.Sprintf("%d/%d replicas reachable, degrading to single-instance checkpoints", alive, g.n)})
		r.commitThrough(r.pendingIndexes(), ^uint64(0))
	}
}

// pendingIndexes returns the outstanding proposal indexes in ascending
// order (map iteration order must never reach commit order).
func (r *replica) pendingIndexes() []uint64 {
	idxs := make([]uint64, 0, len(r.pending))
	for idx := range r.pending {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	return idxs
}

// commitThrough commits, in index order, every pending proposal among idxs
// (ascending) up to frontier. Degraded mode commits them all locally, like
// a group of one, where the self-accept is the commit.
func (r *replica) commitThrough(idxs []uint64, frontier uint64) {
	for _, i := range idxs {
		if i > frontier {
			break
		}
		p := r.pending[i]
		delete(r.pending, i)
		r.commitIndex = max(r.commitIndex, i)
		p.cb()
	}
}

// checkLeader is the follower side: feed suspicion, campaign when the
// leader's beats stop looking alive, and retry stalled campaigns with a
// fresh ballot after an id-staggered timeout.
func (r *replica) checkLeader(now sim.Time) {
	if r.campaign != 0 {
		r.campaignTicks++
		if r.campaignTicks >= electionRetryTicks+r.id {
			r.startCampaign()
		}
		return
	}
	if int(r.leaderBallot)%r.g.n == r.id {
		// I own the current ballot but am not leading — a restarted old
		// leader. Campaign for a fresh ballot rather than squat.
		r.startCampaign()
		return
	}
	// Anti-flap floor: phi crossing the threshold is necessary but not
	// sufficient. On a freshly-warmed window of near-constant beat gaps a
	// single lost datagram looks astronomically suspicious, so an election
	// additionally requires silence past the bootstrap horizon — phi then
	// governs how far past it suspicion stretches under observed jitter.
	if r.leaderPhi.Suspect(now) && r.leaderPhi.Silent(now) {
		r.startCampaign()
	}
}

// startCampaign opens (or re-opens) an election with a ballot strictly
// above everything this replica has seen, from its own id's ballot class.
func (r *replica) startCampaign() {
	g := r.g
	maxSeen := r.promised
	if r.leaderBallot > maxSeen {
		maxSeen = r.leaderBallot
	}
	if r.campaign > maxSeen {
		maxSeen = r.campaign
	}
	b := (maxSeen/uint64(g.n)+1)*uint64(g.n) + uint64(r.id)
	r.campaign = b
	r.campaignTicks = 0
	r.promises = make(map[int]*consMsg)
	g.f.Corr.Elections++
	if b > r.promised {
		r.promised = b // self-promise
	}
	for j := 0; j < g.n; j++ {
		if j != r.id {
			r.sendTo(j, consMsg{Kind: consPrepare, Ballot: b})
		}
	}
}

// handle processes one decoded consensus message.
func (r *replica) handle(m *consMsg, from int) {
	if from < 0 || from >= r.g.n || from == r.id {
		r.g.f.Corr.WireRejects++
		return
	}
	now := r.g.f.S.Now()
	switch m.Kind {
	case consPrepare:
		if m.Ballot < r.promised {
			r.sendTo(from, consMsg{Kind: consNack, Ballot: r.promised})
			return
		}
		r.promised = m.Ballot
		if r.isLeader && m.Ballot > r.ballot {
			r.stepDown()
		}
		p := consMsg{Kind: consPromise, Ballot: m.Ballot}
		if r.acc != nil {
			p.AccBallot = r.acc.Ballot
			p.Index = r.acc.Index
			p.Entry = r.acc
		}
		r.sendTo(from, p)

	case consPromise:
		if r.campaign == 0 || m.Ballot != r.campaign {
			return
		}
		p := *m
		p.Entry = m.Entry.keep()
		r.promises[from] = &p
		if len(r.promises)+1 >= r.g.quorum {
			r.win(now)
		}

	case consAccept:
		if m.Ballot < r.promised {
			r.sendTo(from, consMsg{Kind: consNack, Ballot: r.promised})
			return
		}
		r.promised = m.Ballot
		if r.isLeader && m.Ballot > r.ballot {
			r.stepDown()
		}
		r.observeLeader(m.Ballot, now)
		if m.Entry != nil && m.Entry.follows(r.acc) {
			r.acc = m.Entry.keep()
		}
		ackIdx := uint64(0)
		if r.acc != nil {
			ackIdx = r.acc.Index
		}
		r.sendTo(from, consMsg{Kind: consAccepted, Ballot: m.Ballot, Index: ackIdx})

	case consAccepted:
		if !r.isLeader || m.Ballot != r.ballot || r.g.active != r.id {
			return
		}
		r.ackFrom(from, m.Index, now)

	case consNack:
		if r.campaign != 0 && m.Ballot > r.campaign {
			r.campaign = 0
			r.promises = nil
		}
		if m.Ballot > r.promised {
			r.promised = m.Ballot
		}
		if r.isLeader && m.Ballot > r.ballot {
			r.stepDown()
		}

	case consBeat:
		if int(m.Ballot)%r.g.n == from {
			// A leader's beat.
			if m.Ballot < r.promised {
				r.sendTo(from, consMsg{Kind: consNack, Ballot: r.promised})
				return
			}
			r.promised = m.Ballot
			if r.isLeader && from != r.id {
				r.stepDown() // equal-or-higher ballot from a peer: not mine
			}
			r.observeLeader(m.Ballot, now)
			if m.Entry != nil && m.Entry.follows(r.acc) {
				r.acc = m.Entry.keep()
			}
			ackIdx := uint64(0)
			if r.acc != nil {
				ackIdx = r.acc.Index
			}
			r.sendTo(from, consMsg{Kind: consBeat, Ballot: m.Ballot, Index: ackIdx})
			return
		}
		// A follower's beat-ack.
		if r.isLeader && m.Ballot == r.ballot && r.g.active == r.id {
			r.ackFrom(from, m.Index, now)
		}
	}
}

// observeLeader records a sign of life from the ballot's owner, resetting
// the suspicion window when leadership changes hands.
func (r *replica) observeLeader(ballot uint64, now sim.Time) {
	if ballot != r.leaderBallot {
		r.leaderBallot = ballot
		r.leaderPhi.Reset(now)
		if r.campaign != 0 && ballot >= r.campaign {
			r.campaign = 0
			r.promises = nil
		}
	}
	r.leaderPhi.Observe(now)
}

// ackFrom advances a peer's acknowledged index at the leader and commits
// every pending entry the quorum now covers, in index order.
func (r *replica) ackFrom(from int, idx uint64, now sim.Time) {
	r.peerPhi[from].Observe(now)
	if idx > r.lastAcked[from] {
		r.lastAcked[from] = idx
	}
	if len(r.pending) == 0 {
		return // the common beat-ack: nothing to order, nothing to commit
	}
	idxs := r.pendingIndexes()
	frontier := uint64(0)
	for _, i := range idxs {
		if i <= idx {
			r.pending[i].acked[from] = true
		}
		if len(r.pending[i].acked)+1 >= r.g.quorum && i > frontier {
			frontier = i
		}
	}
	// Entry `frontier` carries a checkpoint subsuming everything below it,
	// so all lower pending entries commit with it.
	r.commitThrough(idxs, frontier)
}

// stepDown demotes a deposed leader to follower and drops its outstanding
// commit closures: their state rides the checkpoints the next leader
// recovers, and announcePending re-derives the external effects. A
// follower therefore never holds a pending proposal or a degraded flag.
func (r *replica) stepDown() {
	r.isLeader = false
	r.quorumMisses = 0
	r.quorumLost = false
	clear(r.pending)
}

// win completes an election: adopt the best accepted entry the promise
// quorum reported, its own included (Paxos's value-choice rule: highest
// ballot, then highest index), and take over the fleet state machine.
func (r *replica) win(now sim.Time) {
	g := r.g
	b := r.campaign
	r.campaign = 0
	r.campaignTicks = 0
	r.isLeader = true
	r.ballot = b
	r.leaderBallot = b
	for j := 0; j < g.n; j++ {
		r.peerPhi[j].Reset(now) // grace: quorum audit restarts from here
		r.lastAcked[j] = 0
	}
	r.quorumMisses = 0
	best := r.acc
	for j := 0; j < g.n; j++ {
		pm, ok := r.promises[j]
		if !ok || pm.Entry == nil {
			continue
		}
		if pm.Entry.follows(best) {
			best = pm.Entry
		}
	}
	r.promises = nil
	g.takeover(r, best)
}

// takeover switches the fleet state machine to a newly elected leader: the
// previous incarnation's timers are halted, state is restored from the best
// accepted entry's checkpoint — which becomes the winner's own frame; with
// none the winner starts from scratch — the transport sequence state
// follows it to the new server, and verdicts the dead leader confirmed but
// never announced are finished.
func (g *corrGroup) takeover(r *replica, best *logEntry) {
	f := g.f
	now := f.S.Now()
	g.active = r.id
	if best != nil {
		r.acc = best
		r.nextIndex = max(r.nextIndex, best.Index)
		// The entry had been accepted somewhere; re-proposing it as our
		// fresh checkpoint below re-commits it under the new ballot.
		r.commitIndex = max(r.commitIndex, best.Index)
	}
	f.corrGen++
	f.haltDuty()
	f.Corr.Failovers++
	detail := f.restoreState(r.frame())
	f.emit(Event{Time: now, Kind: EventLeaderElected, Link: r.name,
		Entry: netsim.InvalidEntry, Detail: fmt.Sprintf("ballot %d, %s", r.ballot, detail)})
	f.announcePending()
	f.resumeDuty()
	f.persist() // replicate the recovered state under the new ballot
}

// frame is the state frame the replica holds: its accepted entry's, or nil
// before its first.
func (r *replica) frame() []byte {
	if r.acc == nil {
		return nil
	}
	return r.acc.Cp
}

// CrashReplica fails one correlator replica. Crashing the active replica —
// the only one a group of one has — is a correlator outage: all in-memory
// state since the last frame is lost, every pending timer and in-flight
// read is abandoned, and inbound reports go unacknowledged, so switch agents
// observe the crash exactly like a partition and engage degraded-mode local
// protection while followers elect. Crashing a follower only thins the
// quorum. Acceptor state (promised ballot, accepted entry) survives, as
// Paxos requires of stable storage.
func (f *Fleet) CrashReplica(id int) {
	g := f.group
	if id < 0 || id >= g.n {
		return
	}
	r := g.replicas[id]
	if r.crashed {
		return
	}
	r.crashed = true
	if r.srv != nil {
		r.srv.SetAccepting(false)
	}
	r.campaign = 0
	r.promises = nil
	f.Corr.Crashes++
	detail := "follower replica"
	if id == g.active {
		detail = "active leader"
		f.corrGen++
		f.haltDuty()
	}
	if g.n == 1 {
		detail = "" // a lone replica has no role to name
	}
	f.emit(Event{Time: f.S.Now(), Kind: EventCorrelatorCrash, Link: r.name,
		Entry: netsim.InvalidEntry, Detail: detail})
}

// RestartReplica brings a crashed replica back (no-op for an id that is not
// a crashed replica). A restarted non-active replica rejoins as a follower
// and catches up from the leader's beats. The active replica restarting
// with no successor elected — the only case in a group of one — restores
// from its own accepted entry (or from scratch before its first) and
// reconciles with live telemetry: confirmed verdicts and the alarm/reroute
// dedup maps come back, pending evidence windows re-open in full, the
// server resumes with the frame's sequence state, and every switch's
// restart counter is re-read so reboots during the outage are not
// misdiagnosed.
func (f *Fleet) RestartReplica(id int) {
	g := f.group
	if id < 0 || id >= g.n {
		return
	}
	r := g.replicas[id]
	if !r.crashed {
		return
	}
	now := f.S.Now()
	r.crashed = false
	if r.srv != nil {
		r.srv.SetAccepting(true)
	}
	r.leaderPhi.Reset(now)
	if id == g.active {
		// Nobody took over while we were down: checkpoint recovery.
		detail := f.restoreState(r.frame())
		f.emit(Event{Time: now, Kind: EventCorrelatorRestart, Link: r.name,
			Entry: netsim.InvalidEntry, Detail: detail})
		f.resumeDuty()
		return
	}
	r.stepDown()
	f.emit(Event{Time: now, Kind: EventCorrelatorRestart, Link: r.name,
		Entry: netsim.InvalidEntry, Detail: "rejoined as follower"})
}

// KillLeader crashes whichever replica currently drives the fleet (the
// failover drill, and the correlator crash of a group of one), returning
// its id for RestartReplica.
func (f *Fleet) KillLeader() int {
	id := f.group.active
	f.CrashReplica(id)
	return id
}

// Leader returns the name of the replica currently driving the fleet
// ("correlator" for a group of one).
func (f *Fleet) Leader() string { return f.active().name }
