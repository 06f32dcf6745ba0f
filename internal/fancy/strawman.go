package fancy

// This file implements the strawman protocol of §4.1 — continuous counting
// with in-packet session IDs — which the paper rejects in favour of
// stop-and-wait. It exists for the ablation study (exp.AblationStrawman):
//
//   - The upstream tags packets with the current session ID and rolls the
//     session over every interval without any handshake, so counting never
//     pauses (its advantage over FANcY's protocol).
//   - The downstream, upon seeing a tag from a new session, sends back the
//     counter of the session that just ended — once, unacknowledged.
//   - Reliability costs memory: to survive the loss of a report, both
//     sides must keep the last K session counters. A session whose report
//     is lost beyond the history depth is simply unverifiable: the
//     measurement is gone ("a link cannot be monitored if a failure
//     affects the reverse direction of the traffic").
//
// Memory per monitored entry is therefore K× FANcY's single counter pair
// (MemoryBits), and the fraction of verifiable sessions degrades with
// reverse-path loss (Verified/Sessions), which the ablation quantifies.

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// strawmanInterval is the strawman's session rollover period.
const strawmanInterval = 50 * sim.Millisecond

// StrawmanConfig parameterizes the continuous-counting strawman.
type StrawmanConfig struct {
	Entry   netsim.EntryID
	History int // K: counter sets kept on each side (≥1)
}

func (c *StrawmanConfig) fill() {
	if c.History < 1 {
		c.History = 1
	}
}

// MemoryBits is the per-entry register memory on both sides: K pairs of
// 32-bit counters plus the 16-bit session tag state, mirroring the §4.3
// accounting style used for FANcY's dedicated counters.
func (c StrawmanConfig) MemoryBits() int {
	return c.History*2*32 + 16
}

// StrawmanSender runs at the upstream switch. Attach via the switch's
// egress hook for the monitored port and feed reports through
// HandleReport.
type StrawmanSender struct {
	cfg  StrawmanConfig
	s    *sim.Sim
	port int

	session uint32
	history []strawSession // ring, newest last

	// Results.
	Sessions   uint64 // sessions closed
	Verified   uint64 // sessions whose report arrived in time
	Lost       uint64 // sessions evicted unverified (measurement lost)
	Mismatches uint64 // verified sessions with upstream > downstream
	FlaggedAt  sim.Time
}

type strawSession struct {
	id    uint32
	count uint64
	done  bool // verified or given up
}

// NewStrawmanSender installs the sender on sw's egress port.
func NewStrawmanSender(s *sim.Sim, sw *netsim.Switch, port int, cfg StrawmanConfig) *StrawmanSender {
	cfg.fill()
	snd := &StrawmanSender{cfg: cfg, s: s, port: port}
	snd.history = append(snd.history, strawSession{id: snd.session})
	sw.AddEgressHook(snd)
	sw.RefreshEgressHooks()
	s.AfterActor(strawmanInterval, (*strawRollover)(snd))
	return snd
}

// OnEgress implements netsim.EgressHook: continuous counting and tagging.
func (snd *StrawmanSender) OnEgress(pkt *netsim.Packet, port int) {
	if port != snd.port || pkt.Proto == netsim.ProtoFancy || pkt.Entry != snd.cfg.Entry {
		return
	}
	cur := &snd.history[len(snd.history)-1]
	cur.count++
	pkt.Tagged = true
	pkt.TagKind = wire.KindDedicated
	pkt.Tag = wire.DedicatedTag(uint16(snd.session))
	pkt.Size += wire.TagSize
}

// strawRollover is the StrawmanSender as the sim.Actor of its session
// rollover timer.
type strawRollover StrawmanSender

func (r *strawRollover) Fire() { (*StrawmanSender)(r).rollover() }

func (snd *StrawmanSender) rollover() {
	snd.Sessions++
	snd.session++
	snd.history = append(snd.history, strawSession{id: snd.session})
	// Evict beyond the history depth: an unverified evicted session is a
	// lost measurement.
	for len(snd.history) > snd.cfg.History+1 { // +1 for the live session
		old := snd.history[0]
		snd.history = snd.history[1:]
		if !old.done {
			snd.Lost++
		}
	}
	snd.s.AfterActor(strawmanInterval, (*strawRollover)(snd))
}

// HandleReport processes a downstream counter report for a session.
func (snd *StrawmanSender) HandleReport(session uint32, downstream uint64) {
	for i := range snd.history {
		ses := &snd.history[i]
		if ses.id != session || ses.done {
			continue
		}
		ses.done = true
		snd.Verified++
		if ses.count > downstream {
			snd.Mismatches++
			if snd.FlaggedAt == 0 {
				snd.FlaggedAt = snd.s.Now()
			}
		}
		return
	}
	// Report for a session outside the history: useless.
}

// VerifiedFraction reports the share of closed sessions that produced a
// usable measurement.
func (snd *StrawmanSender) VerifiedFraction() float64 {
	closed := snd.Verified + snd.Lost
	if closed == 0 {
		return 1
	}
	return float64(snd.Verified) / float64(closed)
}

// StrawmanReceiver runs at the downstream switch: it counts tagged packets
// per session and emits one unacknowledged report at each session change.
type StrawmanReceiver struct {
	cfg  StrawmanConfig
	s    *sim.Sim
	port int
	peer *StrawmanSender // report delivery, subject to reverse-path loss

	reverse *netsim.Failure // loss model for the report path

	counts  map[uint32]uint64
	current uint32
	started bool

	ReportsSent uint64
	ReportsLost uint64
}

// NewStrawmanReceiver installs the receiver on sw's ingress port. Reports
// travel back to peer over a path modelled by reverse (nil = lossless):
// the strawman has no retransmission, so a dropped report permanently
// loses that session's measurement.
func NewStrawmanReceiver(s *sim.Sim, sw *netsim.Switch, port int, peer *StrawmanSender,
	reverse *netsim.Failure, cfg StrawmanConfig) *StrawmanReceiver {
	cfg.fill()
	rcv := &StrawmanReceiver{
		cfg: cfg, s: s, port: port, peer: peer, reverse: reverse,
		counts: make(map[uint32]uint64),
	}
	sw.AddIngressHook(rcv)
	return rcv
}

// OnIngress implements netsim.IngressHook.
func (rcv *StrawmanReceiver) OnIngress(pkt *netsim.Packet, port int) bool {
	if port != rcv.port || !pkt.Tagged {
		return false
	}
	session := uint32(pkt.Tag.DedicatedID())
	pkt.Tagged = false
	pkt.Size -= wire.TagSize
	if !rcv.started {
		rcv.started = true
		rcv.current = session
	}
	if session != rcv.current {
		// Session change observed: report the session that ended.
		rcv.report(rcv.current)
		rcv.current = session
	}
	rcv.counts[session]++
	// Trim old sessions beyond the history depth.
	for id := range rcv.counts {
		if session >= uint32(rcv.cfg.History)+1 && id < session-uint32(rcv.cfg.History) {
			delete(rcv.counts, id)
		}
	}
	return false
}

func (rcv *StrawmanReceiver) report(session uint32) {
	rcv.ReportsSent++
	// The report carries the last History sessions' counters — this is
	// what the k-fold memory buys: one surviving report compensates up to
	// k−1 lost predecessors (§4.1: "to ensure reliability across k
	// sessions, both ... must keep k−1 historical counters' values").
	type sessCount struct {
		id    uint32
		count uint64
	}
	var payload []sessCount
	for i := 0; i < rcv.cfg.History; i++ {
		id := session - uint32(i)
		if c, ok := rcv.counts[id]; ok {
			payload = append(payload, sessCount{id, c})
		}
		if id == 0 {
			break
		}
	}
	// One RTT later the report reaches the sender — unless the reverse
	// path drops it (no retransmission in the strawman).
	probe := &netsim.Packet{Proto: netsim.ProtoFancy, Entry: netsim.InvalidEntry, Size: 64}
	if rcv.reverse.Drop(probe, rcv.s.Now()) {
		rcv.ReportsLost++
		return
	}
	rcv.s.After(10*sim.Millisecond, func() {
		for _, sc := range payload {
			rcv.peer.HandleReport(sc.id, sc.count)
		}
	})
}
