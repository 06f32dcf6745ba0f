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

// pendingCall is one in-flight RPC attempt cycle.
type pendingCall struct {
	id      uint64
	to      string
	req     any
	attempt int
	timer   sim.Timer
	expire  func() // the attempt timeout, bound once per call
	done    bool
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
		for id, pc := range srv.calls {
			pc.done = true
			pc.timer.Stop()
			delete(srv.calls, id)
		}
	}
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
		if !ok || pc.done {
			return // late duplicate of an answered or abandoned call
		}
		pc.done = true
		pc.timer.Stop()
		delete(srv.calls, d.Seq)
		if d.Err != "" {
			pc.cb(nil, errors.New(d.Err))
			return
		}
		pc.cb(d.Payload, nil)
	}
}

// Call issues an RPC read against a switch agent with per-attempt timeouts
// and bounded exponential-backoff retries; cb fires exactly once, with
// ErrUnavailable if every attempt expired. This is the management-plane
// Get/Sample path: the correlator's periodic sweep is a SAMPLE over it and
// verdict-time reads are hardened Gets.
func (srv *Server) Call(to string, req any, cb func(any, error)) {
	srv.nextID++
	pc := &pendingCall{id: srv.nextID, to: to, req: req, cb: cb}
	pc.expire = func() {
		if pc.done {
			return
		}
		pc.attempt++
		if pc.attempt >= maxAttempts {
			pc.done = true
			delete(srv.calls, pc.id)
			srv.Stats.CallFails++
			pc.cb(nil, ErrUnavailable)
			return
		}
		srv.attempt(pc)
	}
	srv.calls[pc.id] = pc
	srv.attempt(pc)
}

func (srv *Server) attempt(pc *pendingCall) {
	srv.Stats.Calls++
	srv.net.Send(Dgram{From: srv.name, To: pc.to, Kind: DgramCallReq, Seq: pc.id, Payload: pc.req})
	pc.timer = srv.s.ScheduleTimer(srv.net.backoff(srv.name, pc.to, pc.attempt), pc.expire)
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
// correlator's checkpoint.
func (srv *Server) SeqCheckpoint() map[string]SeqState {
	out := make(map[string]SeqState, len(srv.clients))
	for name, ct := range srv.clients {
		st := SeqState{Contig: ct.contig}
		for s := range ct.above {
			st.Above = append(st.Above, s)
		}
		slices.Sort(st.Above)
		out[name] = st
	}
	return out
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
