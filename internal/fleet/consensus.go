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
// checkpoint) and never elects.
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
//   - Exactly one replica — group.active — drives the shared Fleet state
//     machine; takeover halts the previous incarnation's timers, restores
//     from the best accepted entry and so re-aims the server agents report
//     to (Fleet.active), which excludes split-brain by construction.
//     Deposed or non-active replicas answer agent traffic with redirects
//     instead of consuming it.

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
	entry *logEntry
	cb    func()       // commit closure (verdict announce, reroute replay)
	acked map[int]bool // peer ids that acknowledged this index
}

// corrGroup is the correlator: N >= 1 replicas, one active.
type corrGroup struct {
	f        *Fleet
	n        int
	quorum   int
	replicas []*replica

	active      int // replica currently driving the Fleet state machine
	nextIndex   uint64
	commitIndex uint64
	pending     map[uint64]*pendingEntry
	quorumLost  bool // active leader is in degraded single-instance mode
	lastCrashed int  // most recently crashed replica, -1 if none (RestartCorrelator)
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

	// Acceptor state — survives a replica crash (stable storage).
	promised uint64
	acc      *logEntry // highest accepted entry

	// Leader state (volatile).
	isLeader     bool
	ballot       uint64
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
	tickFn    func() // tick bound once: re-arming allocates nothing

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
	g := &corrGroup{
		f: f, n: n, quorum: n/2 + 1,
		pending:     make(map[uint64]*pendingEntry),
		lastCrashed: -1,
	}
	for i := 0; i < n; i++ {
		name := correlatorEndpoint
		if n > 1 {
			name = fmt.Sprintf("corr%d", i)
		}
		r := &replica{
			g: g, id: i, name: name,
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
			r.tickFn = r.tick
			r.tickTimer = f.S.ScheduleTimer(beat+sim.Time(i)*(beat/4+1), r.tickFn)
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
	g := f.group
	return g.n > 1 && !g.quorumLost && g.leader() != nil
}

// commit is the one place a decision's external effects (operator alert,
// gating reroute commands) meet durability; the caller has already applied
// the state change. While replicating, the state rides a log entry and the
// effects wait for the acknowledgment quorum, so nothing externally visible
// is lost to a leader crash. Otherwise — a group of one, a leader without
// its quorum, or one a stale ballot deposed while it still drives the fleet —
// the effects run now and the checkpoint that follows is the commit.
func (f *Fleet) commit(note string, effects func()) {
	if f.replicating() {
		f.group.replicate(f.checkpoint(), note, effects)
		return
	}
	effects()
	cp := f.checkpoint()
	if g := f.group; g.n > 1 {
		// One home for durable state: what the active replica checkpoints
		// alone is also its accepted entry, or its next election win restores
		// a frame that predates effects already run — and runs them again.
		r := f.active()
		g.nextIndex++
		r.acc = &logEntry{Index: g.nextIndex, Ballot: r.ballot, Note: []byte(note), Cp: cp}
	}
}

// replicate appends the state frame cp to the log and sends Accepts; cb runs
// at quorum. Only commit calls it, holding replicating().
func (g *corrGroup) replicate(cp []byte, note string, cb func()) {
	r := g.leader()
	g.nextIndex++
	e := &logEntry{Index: g.nextIndex, Ballot: r.ballot, Note: []byte(note), Cp: cp}
	r.acc = e // self-accept
	g.pending[e.Index] = &pendingEntry{entry: e, cb: cb, acked: make(map[int]bool)}
	for j := 0; j < g.n; j++ {
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

// tick is a replica's periodic duty: leaders beat peers and audit their
// quorum, followers audit the leader and campaign on suspicion.
func (r *replica) tick() {
	r.tickTimer = r.g.f.S.ScheduleTimer(beat, r.tickFn)
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
		m := consMsg{Kind: consBeat, Ballot: r.ballot, Index: g.commitIndex}
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
		if g.quorumLost {
			g.quorumLost = false
			g.f.emit(Event{Time: now, Kind: EventQuorumRestored, Link: r.name,
				Entry:  netsim.InvalidEntry,
				Detail: fmt.Sprintf("%d/%d replicas reachable, resuming replicated commits", alive, g.n)})
			g.f.persist() // fresh entry resyncs followers
		}
		return
	}
	r.quorumMisses++
	if !g.quorumLost && r.quorumMisses >= quorumGraceTicks {
		g.quorumLost = true
		g.f.Corr.QuorumLosses++
		g.f.emit(Event{Time: now, Kind: EventQuorumLost, Link: r.name,
			Entry:  netsim.InvalidEntry,
			Detail: fmt.Sprintf("%d/%d replicas reachable, degrading to single-instance checkpoints", alive, g.n)})
		g.flushPending()
	}
}

// flushPending commits every outstanding proposal locally, in index order:
// degraded mode commits like a group of one, where a persisted checkpoint
// is the commit.
func (g *corrGroup) flushPending() {
	for _, idx := range g.pendingIndexes() {
		p := g.pending[idx]
		delete(g.pending, idx)
		if idx > g.commitIndex {
			g.commitIndex = idx
		}
		p.cb()
	}
}

// pendingIndexes returns the outstanding proposal indexes in ascending
// order (map iteration order must never reach commit order).
func (g *corrGroup) pendingIndexes() []uint64 {
	idxs := make([]uint64, 0, len(g.pending))
	for idx := range g.pending {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	return idxs
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
		if m.Entry != nil && (r.acc == nil || m.Entry.Index > r.acc.Index ||
			(m.Entry.Index == r.acc.Index && m.Entry.Ballot >= r.acc.Ballot)) {
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
			if m.Entry != nil && (r.acc == nil || m.Entry.Index > r.acc.Index) {
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
	g := r.g
	r.peerPhi[from].Observe(now)
	if idx > r.lastAcked[from] {
		r.lastAcked[from] = idx
	}
	if len(g.pending) == 0 {
		return // the common beat-ack: nothing to order, nothing to commit
	}
	idxs := g.pendingIndexes()
	frontier := uint64(0)
	for _, i := range idxs {
		if i <= idx {
			g.pending[i].acked[from] = true
		}
		if len(g.pending[i].acked)+1 >= g.quorum && i > frontier {
			frontier = i
		}
	}
	if frontier == 0 {
		return
	}
	// Entry `frontier` carries a checkpoint subsuming everything below it,
	// so all lower pending entries commit with it.
	for _, i := range idxs {
		if i > frontier {
			break
		}
		p := g.pending[i]
		delete(g.pending, i)
		if i > g.commitIndex {
			g.commitIndex = i
		}
		p.cb()
	}
}

// stepDown demotes a deposed leader to follower. If it was still the
// active replica its outstanding commit closures are dropped: their state
// rides the checkpoints the new leader recovers, and announcePending
// re-derives the external effects. A deposed ex-leader that already lost
// the active role must not touch its successor's pending commits.
func (r *replica) stepDown() {
	r.isLeader = false
	r.quorumMisses = 0
	if r.g.active == r.id {
		r.g.quorumLost = false
		r.g.pending = make(map[uint64]*pendingEntry)
	}
}

// win completes an election: adopt the best accepted entry the promise
// quorum reported (Paxos's value-choice rule, with full-checkpoint entries
// compared by index then ballot) and take over the fleet state machine.
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
		if best == nil || pm.Entry.Index > best.Index ||
			(pm.Entry.Index == best.Index && pm.Entry.Ballot > best.Ballot) {
			best = pm.Entry
		}
	}
	r.promises = nil
	g.takeover(r, best)
}

// takeover switches the fleet state machine to a newly elected leader: the
// previous incarnation's timers are halted, state is restored from the best
// accepted entry's checkpoint, the transport sequence state follows it to
// the new server, and verdicts the dead leader confirmed but never
// announced are finished.
func (g *corrGroup) takeover(r *replica, best *logEntry) {
	f := g.f
	now := f.S.Now()
	g.active = r.id
	g.quorumLost = false
	g.pending = make(map[uint64]*pendingEntry)
	if best != nil {
		r.acc = best
		if best.Index >= g.nextIndex {
			g.nextIndex = best.Index
		}
		if best.Index > g.commitIndex {
			// The entry had been accepted somewhere; re-proposing it as our
			// fresh checkpoint below re-commits it under the new ballot.
			g.commitIndex = best.Index
		}
		f.lastCkpt = best.Cp
	}
	f.corrGen++
	f.haltDuty()
	f.Corr.Failovers++
	detail := f.restoreState(f.lastCkpt)
	f.emit(Event{Time: now, Kind: EventLeaderElected, Link: r.name,
		Entry: netsim.InvalidEntry, Detail: fmt.Sprintf("ballot %d, %s", r.ballot, detail)})
	f.announcePending()
	f.resumeDuty()
	f.persist() // replicate the recovered state under the new ballot
}

// CrashReplica fails one correlator replica. Crashing the active replica is
// a correlator outage (agents observe silence, followers elect); crashing a
// follower only thins the quorum. Acceptor state (promised ballot, accepted
// entry) survives, as Paxos requires of stable storage.
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
	g.lastCrashed = id
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

// RestartReplica brings a crashed replica back. A restarted non-active
// replica rejoins as a follower and catches up from the leader's beats; the
// active replica restarting with no successor elected — the only case in a
// group of one — restores from its last checkpoint.
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
		detail := f.restoreState(f.lastCkpt)
		f.emit(Event{Time: now, Kind: EventCorrelatorRestart, Link: r.name,
			Entry: netsim.InvalidEntry, Detail: detail})
		f.resumeDuty()
		return
	}
	r.isLeader = false
	f.emit(Event{Time: now, Kind: EventCorrelatorRestart, Link: r.name,
		Entry: netsim.InvalidEntry, Detail: "rejoined as follower"})
}

// KillLeader crashes whichever replica currently drives the fleet (the
// failover drill; CrashCorrelator by another name), returning its id for
// RestartReplica.
func (f *Fleet) KillLeader() int {
	id := f.group.active
	f.CrashReplica(id)
	return id
}

// Leader returns the name of the replica currently driving the fleet
// ("correlator" for a group of one).
func (f *Fleet) Leader() string { return f.active().name }
