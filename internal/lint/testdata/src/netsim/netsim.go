// Fixture for poolsafe's packet-lifecycle rules, mirroring netsim: a packet
// goes back to the pool that issued it through pkt.release(), and a packet
// handed to a PacketHandler, IngressHook or OnForwarded callback is only
// borrowed for the duration of the call.
package netsim

// Packet is the lent object.
type Packet struct {
	Size int
	Ctl  []byte
	home *PacketPool
}

// PacketPool issues packets.
type PacketPool struct {
	free []*Packet
}

// Get hands out a packet.
func (p *PacketPool) Get() *Packet { return &Packet{home: p} }

func (pkt *Packet) release() {
	if pkt.home != nil {
		pkt.home.free = append(pkt.home.free, pkt)
		pkt.home = nil
	}
}

// PacketHandlerFunc adapts a function to a packet handler.
type PacketHandlerFunc func(pkt *Packet)

// Switch has the OnForwarded tap.
type Switch struct {
	onForwarded func(pkt *Packet, in, out int)
}

// OnForwarded installs a tap.
func (sw *Switch) OnForwarded(fn func(pkt *Packet, in, out int)) { sw.onForwarded = fn }

// UseAfterRelease reads a packet that already went home (true positive).
func UseAfterRelease(p *PacketPool) int {
	pkt := p.Get()
	pkt.release()
	return pkt.Size
}

// DoubleRelease sends a packet home twice on one path (true positive).
func DoubleRelease(p *PacketPool, dropped bool) {
	pkt := p.Get()
	if dropped {
		pkt.release()
	}
	pkt.release()
}

// ReleaseThenReturn is the death-point shape netsim uses (true negative).
func ReleaseThenReturn(p *PacketPool, dropped bool) int {
	pkt := p.Get()
	if dropped {
		pkt.release()
		return 0
	}
	n := pkt.Size
	pkt.release()
	return n
}

// stash is a handler that keeps what it is lent.
type stash struct {
	last *Packet
	all  []*Packet
	byID map[int]*Packet
	ch   chan *Packet
	size int
}

// HandlePacket stores its borrowed packet in a field (true positive).
func (s *stash) HandlePacket(pkt *Packet) {
	s.last = pkt
}

// OnIngress stores a copy of the borrowed pointer in a slice and a map
// (two true positives: the loan follows the copy).
func (s *stash) OnIngress(pkt *Packet, port int) bool {
	q := pkt
	s.all = append(s.all, q)
	s.byID[port] = q
	return false
}

// OnEgress sends the borrowed packet down a channel (true positive).
func (s *stash) OnEgress(pkt *Packet, port int) {
	s.ch <- pkt
}

// onAck is bound as a handler by Bind below and keeps the packet for later
// in a closure (true positive).
func (s *stash) onAck(pkt *Packet) {
	later(func() { s.size += pkt.Size })
}

func later(func()) {}

// Bind converts a method value and a literal to handlers and installs a
// forwarding tap; the literal retains its packet (true positive), the tap
// only copies a field (true negative).
func Bind(s *stash, sw *Switch) []PacketHandlerFunc {
	var seen []*Packet
	total := 0
	sw.OnForwarded(func(pkt *Packet, in, out int) { total += pkt.Size })
	return []PacketHandlerFunc{
		PacketHandlerFunc(s.onAck),
		PacketHandlerFunc(func(pkt *Packet) { seen = append(seen, pkt) }),
	}
}

// copyingStash is a handler that copies what it needs (true negatives).
type copyingStash struct {
	last  Packet
	sizes []int
	ctl   []byte
}

// HandlePacket copies the struct, a field and the control bytes.
func (s *copyingStash) HandlePacket(pkt *Packet) {
	s.last = *pkt
	s.sizes = append(s.sizes, pkt.Size)
	s.ctl = append(s.ctl[:0], pkt.Ctl...)
}

// NotACallback stores a packet it owns: it is not a handler, hook or tap,
// so nothing was lent (true negative).
func NotACallback(s *stash, pkt *Packet) {
	s.last = pkt
}

// captureSink stands in for a capture observer: the link pins every packet
// an observer sees, so keeping one is allowed — and says so.
type captureSink struct{ kept []*Packet }

// HandlePacket demonstrates a justified suppression.
func (c *captureSink) HandlePacket(pkt *Packet) {
	c.kept = append(c.kept, pkt) //lint:allow poolsafe fixture: packets reaching this sink are pinned by a capture observer
}
