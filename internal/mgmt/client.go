package mgmt

import (
	"sort"

	"fancy/internal/sim"
)

// ClientStats are one switch-side client's lifetime counters.
type ClientStats struct {
	Reports      uint64 // reports accepted from the application
	Retries      uint64 // report retransmissions
	Exhausted    uint64 // reports that ran out of attempts and were spooled
	Spooled      uint64 // reports parked while offline
	SpoolDrops   uint64 // oldest reports evicted by a full spool (become gaps)
	Heartbeats   uint64
	ProbeRetries uint64 // heartbeat retransmissions
	Offline      uint64 // online→offline transitions
	Calls        uint64 // RPC requests served for the correlator
	Redirects    uint64 // redirect answers received from non-leader replicas
	Rotations    uint64 // endpoint rotations after an unanswered target
}

// Client is the switch-side endpoint of the management protocol: it ships
// sequence-numbered reports to the server with bounded retries, probes
// connectivity with heartbeats, and spools reports while the correlator is
// unreachable so a healed partition replays them in order.
type Client struct {
	s    *sim.Sim
	net  fabric
	name string
	srv  string // current server endpoint name

	// endpoints is the full candidate server list (correlator replicas).
	// Empty means single-server mode: srv is the only target. With
	// candidates, an unanswered target rotates to the next and a
	// DgramRedirect re-aims directly at the announced leader.
	endpoints []string
	epIdx     int

	nextSeq      uint64 // report sequence space (contiguous, gap-checked)
	probeSeq     uint64 // heartbeat probe ids, a separate space
	lastProbeAck uint64 // highest probe id ever acknowledged
	inflight     map[uint64]*pendingReport
	spool        []spooled // seq-ordered reports awaiting a reachable server

	online bool
	misses int // consecutive unacked probes/reports

	// OnOnline observes connectivity transitions (true = reachable). The
	// fleet layer uses the false edge to engage degraded-mode local
	// protection and the true edge to hand control back.
	OnOnline func(bool)

	// OnCall serves the correlator's RPC reads (the Get/Sample path). A nil
	// handler rejects calls.
	OnCall func(req any) (any, error)

	Stats ClientStats

	waits []*probeWait // probe-wait records with no timeout pending
}

// heartbeatTick is the Client as the sim.Actor of its recurring
// heartbeat, so the self-reschedule allocates nothing.
type heartbeatTick Client

func (c *heartbeatTick) Fire() { (*Client)(c).heartbeat() }

// pendingReport is one report awaiting its ack; it is the sim.Actor of
// its own ack timeout.
type pendingReport struct {
	c       *Client
	seq     uint64
	payload any
	attempt int
	timer   sim.Timer
}

// Fire is the report's ack timeout.
func (p *pendingReport) Fire() { p.c.expire(p) }

// probeWait is one pending ack timeout of a heartbeat probe, and the
// sim.Actor of it. The client owns the record: probe fills it, Fire
// recycles it before acting — a few exist per client, one per retry chain
// still running.
type probeWait struct {
	c       *Client
	seq     uint64
	attempt int
}

type spooled struct {
	seq     uint64
	payload any
}

// NewClient registers a client endpoint named name, talking to server srv.
func NewClient(s *sim.Sim, net *Network, name, srv string) *Client {
	c := &Client{
		s: s, net: net, name: name, srv: srv,
		nextSeq: 1, online: true,
		inflight: make(map[uint64]*pendingReport),
	}
	net.Register(name, c.onDgram)
	s.AfterActor(HeartbeatInterval, (*heartbeatTick)(c))
	return c
}

// Online reports current connectivity belief (optimistic until offlineAfter
// consecutive probes go unanswered).
func (c *Client) Online() bool { return c.online }

// SpoolLen reports how many reports are currently parked awaiting a
// reachable server.
func (c *Client) SpoolLen() int { return len(c.spool) }

// SetEndpoints installs the candidate server list (correlator replicas).
// If the current target is not on the list the client re-aims at the first
// candidate; otherwise it stays put and only rotates on future misses.
func (c *Client) SetEndpoints(eps []string) {
	c.endpoints = append([]string(nil), eps...)
	c.epIdx = 0
	for i, ep := range c.endpoints {
		if ep == c.srv {
			c.epIdx = i
			return
		}
	}
	if len(c.endpoints) > 0 {
		c.Retarget(c.endpoints[0])
	}
}

// Retarget re-aims the client at a different server endpoint and
// retransmits every in-flight report there in ascending sequence order.
// Attempt counters are preserved: a report that already burned attempts on
// a dead leader keeps its budget, so a genuinely unreachable fleet still
// exhausts and spools on the usual schedule.
func (c *Client) Retarget(srv string) {
	if srv == c.srv {
		return
	}
	c.srv = srv
	for i, ep := range c.endpoints {
		if ep == srv {
			c.epIdx = i
			break
		}
	}
	if len(c.inflight) == 0 {
		return
	}
	seqs := make([]uint64, 0, len(c.inflight))
	for seq := range c.inflight {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		p := c.inflight[seq]
		p.timer.Stop()
		c.send(p)
	}
}

// rotate advances to the next candidate endpoint after the current target
// went unanswered. No-op without a candidate list.
func (c *Client) rotate() {
	if len(c.endpoints) < 2 {
		return
	}
	c.Stats.Rotations++
	c.Retarget(c.endpoints[(c.epIdx+1)%len(c.endpoints)])
}

// Send ships one report. While offline the report is spooled; otherwise it
// is transmitted with up to maxAttempts tries under exponential backoff,
// and parked in the spool if every attempt goes unacknowledged.
func (c *Client) Send(payload any) uint64 {
	seq := c.nextSeq
	c.nextSeq++
	c.Stats.Reports++
	if !c.online {
		c.park(seq, payload)
		return seq
	}
	c.transmit(seq, payload)
	return seq
}

func (c *Client) transmit(seq uint64, payload any) {
	p := &pendingReport{c: c, seq: seq, payload: payload}
	c.inflight[seq] = p
	c.send(p)
}

func (c *Client) send(p *pendingReport) {
	c.net.Send(Dgram{From: c.name, To: c.srv, Kind: DgramReport, Seq: p.seq, Payload: p.payload})
	p.timer = c.s.ScheduleTimerActor(c.net.backoff(c.name, c.srv, p.attempt), p)
}

func (c *Client) expire(p *pendingReport) {
	if _, still := c.inflight[p.seq]; !still {
		return
	}
	p.attempt++
	if p.attempt >= maxAttempts {
		delete(c.inflight, p.seq)
		c.Stats.Exhausted++
		c.miss()
		c.park(p.seq, p.payload)
		return
	}
	c.Stats.Retries++
	c.send(p)
}

// park inserts a report into the seq-ordered spool, evicting the oldest on
// overflow (the server will see the eviction as a sequence hole).
func (c *Client) park(seq uint64, payload any) {
	c.Stats.Spooled++
	i := len(c.spool)
	for i > 0 && c.spool[i-1].seq > seq {
		i--
	}
	c.spool = append(c.spool, spooled{})
	copy(c.spool[i+1:], c.spool[i:])
	c.spool[i] = spooled{seq: seq, payload: payload}
	if len(c.spool) > spoolLimit {
		c.spool = c.spool[1:]
		c.Stats.SpoolDrops++
	}
}

func (c *Client) heartbeat() {
	c.Stats.Heartbeats++
	c.probeSeq++
	c.probe(c.probeSeq, 0)
	c.s.AfterActor(HeartbeatInterval, (*heartbeatTick)(c))
}

// probe transmits one liveness probe with fast, fixed-interval retries (no
// exponential backoff: this is failure detection, not congestion control).
// A probe counts as missed only after every attempt went unanswered, which
// keeps false offline transitions negligible even at heavy datagram loss
// while a real outage still accumulates offlineAfter misses within a few
// heartbeat intervals.
func (c *Client) probe(seq uint64, attempt int) {
	c.net.Send(Dgram{From: c.name, To: c.srv, Kind: DgramHeartbeat, Seq: seq})
	var w *probeWait
	if k := len(c.waits); k > 0 {
		w, c.waits = c.waits[k-1], c.waits[:k-1]
	} else {
		w = &probeWait{c: c}
	}
	w.seq, w.attempt = seq, attempt
	c.s.AfterActor(ackTimeout, w)
}

// Fire is the probe's ack timeout.
func (w *probeWait) Fire() {
	c, seq, attempt := w.c, w.seq, w.attempt
	c.waits = append(c.waits, w)
	if c.lastProbeAck >= seq {
		return
	}
	if attempt+1 >= maxAttempts {
		c.miss()
		return
	}
	c.Stats.ProbeRetries++
	c.probe(seq, attempt+1)
}

func (c *Client) miss() {
	c.misses++
	// Try the next replica before (and after) giving up: a dead leader is
	// indistinguishable from a partition until another endpoint answers.
	c.rotate()
	if c.online && c.misses >= offlineAfter {
		c.online = false
		c.Stats.Offline++
		if c.OnOnline != nil {
			c.OnOnline(false)
		}
	}
}

func (c *Client) onDgram(d Dgram) {
	switch d.Kind {
	case DgramReportAck:
		if p, ok := c.inflight[d.Seq]; ok {
			p.timer.Stop()
			delete(c.inflight, d.Seq)
		}
		c.ackSeen()
	case DgramHeartbeatAck:
		if d.Seq > c.lastProbeAck {
			c.lastProbeAck = d.Seq
		}
		c.ackSeen()
	case DgramRedirect:
		c.Stats.Redirects++
		hint, _ := d.Payload.(string)
		if hint != "" && hint != c.srv {
			// The replica answered, so the path is alive — clear the miss
			// streak — but only a real ack flushes the spool (ackSeen).
			c.misses = 0
			c.Retarget(hint)
		}
	case DgramCallReq:
		c.Stats.Calls++
		// Answer the caller, not the configured target: with replicas, any
		// leader may issue reads regardless of where reports are aimed.
		resp := Dgram{From: c.name, To: d.From, Kind: DgramCallResp, Seq: d.Seq}
		if c.OnCall == nil {
			resp.Err = "mgmt: no call handler"
		} else if v, err := c.OnCall(d.Payload); err != nil {
			resp.Err = err.Error()
		} else {
			resp.Payload = v
		}
		c.net.Send(resp)
	}
}

// ackSeen resets the miss counter and, on the offline→online edge, flushes
// the spool in sequence order before announcing the transition.
func (c *Client) ackSeen() {
	c.misses = 0
	if c.online {
		return
	}
	c.online = true
	spool := c.spool
	c.spool = nil
	for _, sp := range spool {
		c.transmit(sp.seq, sp.payload)
	}
	if c.OnOnline != nil {
		c.OnOnline(true)
	}
}
