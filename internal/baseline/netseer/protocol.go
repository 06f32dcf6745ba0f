package netseer

// An executable NetSeer inter-switch protocol on the netsim substrate,
// confirming the Figure 2 analysis "by experiments" as the paper did in
// ns-3: the upstream switch buffers a signature of every packet it sends;
// the downstream detects sequence gaps and NACKs the missing packets; the
// upstream attributes a NACKed loss only if the signature is still in its
// buffer. At ISP bandwidth-delay products the buffer wraps before NACKs
// arrive and losses become unattributable ("NetSeer is not operational").

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// Protocol runs NetSeer between one upstream egress port and one
// downstream ingress port.
type Protocol struct {
	s     *sim.Sim
	buf   *Buffer
	delay sim.Time // one-way latency for the NACK path

	nextSeq uint64 // per-link sequence stamped at the upstream
	expect  uint64 // next sequence expected at the downstream
	started bool

	// Attributed counts losses whose signature was still buffered when
	// the NACK arrived — the cases NetSeer can localize. Unattributable
	// counts NACKs that arrived after eviction.
	Attributed     uint64
	Unattributable uint64

	// LossByEntry localizes attributed losses, NetSeer's output.
	LossByEntry map[netsim.EntryID]uint64

	entryOf map[uint64]netsim.EntryID // signature → entry while buffered
}

// NewProtocol builds a NetSeer instance whose upstream buffer holds
// bufferPackets signatures, with the given one-way NACK latency.
func NewProtocol(s *sim.Sim, bufferPackets int, delay sim.Time) *Protocol {
	return &Protocol{
		s: s, buf: NewBuffer(bufferPackets), delay: delay,
		LossByEntry: make(map[netsim.EntryID]uint64),
		entryOf:     make(map[uint64]netsim.EntryID),
	}
}

// OnEgress implements netsim.EgressHook for the upstream switch: stamp and
// buffer every data packet.
func (p *Protocol) OnEgress(pkt *netsim.Packet, port int) {
	if pkt.Proto == netsim.ProtoFancy || pkt.Entry == netsim.InvalidEntry {
		return
	}
	p.nextSeq++
	seq := p.nextSeq
	pkt.ProbeWindow = int64(seq) // reuse the probe stamp as the NetSeer seq
	p.buf.Store(seq)
	p.entryOf[seq] = pkt.Entry
	// Bound the side map to the buffer's reach (the ring itself stores
	// only the signature; the entry map mirrors its eviction).
	if evicted := int64(seq) - int64(p.buf.Capacity()); evicted > 0 {
		delete(p.entryOf, uint64(evicted))
	}
}

// OnIngress implements netsim.IngressHook for the downstream switch:
// detect gaps and send NACKs after one propagation delay.
func (p *Protocol) OnIngress(pkt *netsim.Packet, port int) bool {
	if pkt.ProbeWindow == 0 {
		return false
	}
	seq := uint64(pkt.ProbeWindow)
	pkt.ProbeWindow = 0
	if !p.started {
		p.started = true
		p.expect = seq
	}
	if seq > p.expect {
		// Packets expect..seq-1 were lost: NACK each.
		for missing := p.expect; missing < seq; missing++ {
			m := missing
			p.s.After(p.delay, func() { p.onNACK(m) })
		}
	}
	if seq >= p.expect {
		p.expect = seq + 1
	}
	return false
}

// onNACK processes a NACK arriving back at the upstream.
func (p *Protocol) onNACK(seq uint64) {
	if p.buf.Lookup(seq) {
		p.Attributed++
		if e, ok := p.entryOf[seq]; ok {
			p.LossByEntry[e]++
		}
		return
	}
	p.Unattributable++
}
