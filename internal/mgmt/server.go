package mgmt

import (
	"errors"
	"slices"

	"fancy/internal/sim"
)

// ErrUnavailable is returned by Call when every attempt timed out — the
// switch is unreachable over the management plane (partition, crash window
// or sustained loss).
var ErrUnavailable = errors.New("mgmt: peer unavailable")

// ServerStats are the correlator-side protocol counters.
type ServerStats struct {
	Reports    uint64 // report datagrams received (including duplicates)
	Duplicates uint64 // duplicate deliveries suppressed
	Calls      uint64 // RPC attempts issued
	CallFails  uint64 // RPCs that exhausted every attempt
}

// clientTrack is the server's per-client sequencing and liveness record.
type clientTrack struct {
	contig uint64              // all report seqs <= contig delivered
	above  map[uint64]struct{} // delivered seqs beyond a hole
	phi    *PhiDetector        // the one liveness record: accrual over datagram arrivals
}

// pendingCall is one in-flight RPC attempt cycle, and the sim.Actor of its
// attempt timeout. The server owns the record: Call fills it, and each of
// its three ends (a response, exhaustion, SetAccepting(false)) puts it
// back on the free list before the callback runs — so a late response or a
// stale timeout can only ever find the id gone from calls.
type pendingCall struct {
	srv     *Server
	id      uint64
	to      string
	req     any
	attempt int
	timer   sim.Timer
	cb      func(any, error)
}

// Server is the correlator-side endpoint: it acknowledges and deduplicates
// the report streams, tracks per-client sequence holes and liveness, and
// issues hardened RPC reads against switch agents.
type Server struct {
	s    *sim.Sim
	net  fabric
	name string

	clients map[string]*clientTrack
	calls   map[uint64]*pendingCall
	free    []*pendingCall // ended call records awaiting the next Call
	nextID  uint64

	// accepting gates inbound processing: a crashed correlator neither
	// handles nor acknowledges anything (see SetAccepting).
	accepting bool

	// Intercept, if set, sees every inbound datagram of an accepting
	// server before normal processing; returning true consumes it. The
	// fleet's replica layer uses it to handle consensus traffic and to
	// redirect agent reports away from non-leader replicas.
	Intercept func(Dgram) bool

	// OnReport receives each unique in-order-or-later report. Duplicates
	// are filtered before this point; reordering is visible (the fleet
	// layer guards with epochs), holes are queryable via Holes.
	OnReport func(from string, seq uint64, payload any)

	Stats ServerStats
}

// NewServer registers the correlator endpoint under name.
func NewServer(s *sim.Sim, net *Network, name string) *Server {
	srv := &Server{
		s: s, net: net, name: name,
		clients:   make(map[string]*clientTrack),
		calls:     make(map[uint64]*pendingCall),
		accepting: true,
	}
	net.Register(name, srv.onDgram)
	return srv
}

// SetAccepting toggles inbound processing. While false (correlator
// crashed), reports and heartbeats are dropped unacknowledged — clients
// observe the crash exactly like a partition — and any in-flight RPC is
// abandoned.
func (srv *Server) SetAccepting(on bool) {
	srv.accepting = on
	if !on {
		for _, pc := range srv.calls {
			pc.timer.Stop()
			srv.end(pc)
		}
	}
}

// end retires a call: its id leaves calls and the record goes back on the
// free list, keeping nothing the caller handed in. It returns the callback
// for the caller to run, if it runs one.
func (srv *Server) end(pc *pendingCall) func(any, error) {
	cb := pc.cb
	delete(srv.calls, pc.id)
	pc.req, pc.cb = nil, nil
	srv.free = append(srv.free, pc)
	return cb
}

func (srv *Server) track(name string) *clientTrack {
	ct, ok := srv.clients[name]
	if !ok {
		ct = &clientTrack{above: make(map[uint64]struct{}), phi: NewPhi()}
		srv.clients[name] = ct
	}
	return ct
}

func (srv *Server) onDgram(d Dgram) {
	if !srv.accepting {
		return
	}
	if srv.Intercept != nil && srv.Intercept(d) {
		return
	}
	switch d.Kind {
	case DgramReport:
		srv.Stats.Reports++
		ct := srv.track(d.From)
		ct.phi.Observe(srv.s.Now())
		// Always ack: the client may have missed a previous ack.
		srv.net.Send(Dgram{From: srv.name, To: d.From, Kind: DgramReportAck, Seq: d.Seq})
		if d.Seq <= ct.contig {
			srv.Stats.Duplicates++
			return
		}
		if _, dup := ct.above[d.Seq]; dup {
			srv.Stats.Duplicates++
			return
		}
		ct.above[d.Seq] = struct{}{}
		for {
			if _, ok := ct.above[ct.contig+1]; !ok {
				break
			}
			delete(ct.above, ct.contig+1)
			ct.contig++
		}
		if srv.OnReport != nil {
			srv.OnReport(d.From, d.Seq, d.Payload)
		}
	case DgramHeartbeat:
		ct := srv.track(d.From)
		ct.phi.Observe(srv.s.Now())
		srv.net.Send(Dgram{From: srv.name, To: d.From, Kind: DgramHeartbeatAck, Seq: d.Seq})
	case DgramCallResp:
		pc, ok := srv.calls[d.Seq]
		if !ok {
			return // late duplicate of an answered or abandoned call
		}
		pc.timer.Stop()
		cb := srv.end(pc)
		if d.Err != "" {
			cb(nil, errors.New(d.Err))
			return
		}
		cb(d.Payload, nil)
	}
}

// Call issues an RPC read against a switch agent with per-attempt timeouts
// and bounded exponential-backoff retries; cb fires exactly once, with
// ErrUnavailable if every attempt expired. This is the management-plane
// Get/Sample path: the correlator's periodic sweep is a SAMPLE over it and
// verdict-time reads are hardened Gets.
func (srv *Server) Call(to string, req any, cb func(any, error)) {
	var pc *pendingCall
	if k := len(srv.free); k > 0 {
		pc, srv.free = srv.free[k-1], srv.free[:k-1]
	} else {
		pc = &pendingCall{srv: srv}
	}
	srv.nextID++
	pc.id, pc.to, pc.req, pc.cb, pc.attempt = srv.nextID, to, req, cb, 0
	srv.calls[pc.id] = pc
	srv.attempt(pc)
}

// Fire is one attempt's timeout. Every end stops the timer first, so it
// only fires for a call still in calls.
func (pc *pendingCall) Fire() {
	srv := pc.srv
	pc.attempt++
	if pc.attempt >= maxAttempts {
		srv.Stats.CallFails++
		srv.end(pc)(nil, ErrUnavailable)
		return
	}
	srv.attempt(pc)
}

func (srv *Server) attempt(pc *pendingCall) {
	srv.Stats.Calls++
	srv.net.Send(Dgram{From: srv.name, To: pc.to, Kind: DgramCallReq, Seq: pc.id, Payload: pc.req})
	pc.timer = srv.s.ScheduleTimerActor(srv.net.backoff(srv.name, pc.to, pc.attempt), pc)
}

// Alive reports whether the client is believed reachable: phi-accrual
// suspicion over the observed datagram inter-arrival times once the window
// has warmed up, the fixed UnreachableAfter horizon before that.
func (srv *Server) Alive(name string) bool {
	ct, ok := srv.clients[name]
	return ok && ct.phi.Heard() && !ct.phi.Suspect(srv.s.Now())
}

// Holes counts report sequence numbers currently missing below each
// client's delivery frontier — reports lost for good unless a spooled
// retransmission still arrives.
func (srv *Server) Holes() int {
	n := 0
	for _, ct := range srv.clients {
		if len(ct.above) == 0 {
			continue
		}
		var maxSeq uint64
		for s := range ct.above {
			if s > maxSeq {
				maxSeq = s
			}
		}
		n += int(maxSeq-ct.contig) - len(ct.above)
	}
	return n
}

// SeqCheckpoint snapshots the per-client sequencing state for the
// correlator's checkpoint into dst and returns it (a new map if dst is nil).
// The refill is in place: a client's Above slice is re-used, and clients
// the server no longer tracks are deleted.
func (srv *Server) SeqCheckpoint(dst map[string]SeqState) map[string]SeqState {
	if dst == nil {
		dst = make(map[string]SeqState, len(srv.clients))
	}
	for name := range dst {
		if _, ok := srv.clients[name]; !ok {
			delete(dst, name)
		}
	}
	for name, ct := range srv.clients {
		st := SeqState{Contig: ct.contig, Above: dst[name].Above[:0]}
		for s := range ct.above {
			st.Above = append(st.Above, s)
		}
		slices.Sort(st.Above)
		dst[name] = st
	}
	return dst
}

// RestoreSeq reinstates sequencing state from a checkpoint: reports the
// crashed incarnation had already consumed stay deduplicated, reports it
// consumed after the checkpoint will be re-accepted if a client retransmits
// them (the fleet layer's alarm dedup absorbs that overlap).
func (srv *Server) RestoreSeq(cp map[string]SeqState) {
	srv.clients = make(map[string]*clientTrack, len(cp))
	for name, st := range cp {
		// Fresh phi state: the restarted incarnation re-learns arrival
		// statistics rather than trusting the dead one's window.
		ct := &clientTrack{above: make(map[uint64]struct{}, len(st.Above)), phi: NewPhi()}
		ct.contig = st.Contig
		for _, s := range st.Above {
			ct.above[s] = struct{}{}
		}
		srv.clients[name] = ct
	}
}

// SeqState is one client's checkpointed sequence record.
type SeqState struct {
	Contig uint64
	Above  []uint64
}
