package netsim

// PacketPool is a free list of packets. Every packet source draws from one
// (hosts own a pool for the transports and traffic generators running on
// them, a FANcY detector owns one for its control messages), and netsim
// returns each packet to the pool that issued it — struct and Ctl backing
// array both — at the place where the packet dies:
//
//   - Host.Receive, after the flow or Default handler returns (or when
//     there is none);
//   - Switch.Receive, when an ingress hook consumes the packet or there is
//     no route, and Switch.Inject on an unattached port;
//   - the link's congestion-drop (Send reports false), failure-drop and
//     chaos-drop paths.
//
// So in steady state the data path allocates nothing per packet. There is
// nothing to install and nothing to switch on: a packet carries its way
// home in its own header. Hooks and handlers only ever borrow a packet
// (see Packet).
//
// Two kinds of packet are never recycled and are left to the garbage
// collector: a &Packet{} literal and a chaos duplicate (neither has a
// home), and a packet a capture observer has seen (LinkEnd.SetCapture — the
// observer may hold on to it, so the first captured event pins it for
// good). A pool is single-threaded like the Sim it serves; trial-level
// parallelism uses separate pools per trial by construction.
type PacketPool struct {
	free []*Packet

	// Gets and Reuses count pool traffic for tests and diagnostics.
	Gets   uint64
	Reuses uint64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet that netsim will bring back to p when it
// dies. A reused packet keeps the capacity of its previous Ctl buffer
// (length 0), so control-message senders marshal into it without
// allocating.
func (p *PacketPool) Get() *Packet {
	p.Gets++
	n := len(p.free)
	if n == 0 {
		return &Packet{home: p}
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*pkt = Packet{home: p, Ctl: pkt.Ctl[:0]}
	p.Reuses++
	return pkt
}

// release returns a dead packet to the pool that issued it. It is a no-op
// for packets without a home — literals, clones, pinned packets, and
// packets already released — so calling it at every death point is safe.
// It is unexported on purpose: only netsim knows when a packet is dead.
func (pkt *Packet) release() {
	p := pkt.home
	if p == nil {
		return
	}
	pkt.home = nil // a second release is a no-op until the next Get
	p.free = append(p.free, pkt)
}
