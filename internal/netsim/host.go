package netsim

import (
	"fmt"
	"slices"

	"fancy/internal/sim"
)

// PacketHandler consumes packets delivered to a host for one flow. The
// packet is borrowed for the duration of the call (see Packet).
type PacketHandler interface {
	HandlePacket(pkt *Packet)
}

// PacketHandlerFunc adapts a function to the PacketHandler interface.
type PacketHandlerFunc func(pkt *Packet)

// HandlePacket implements PacketHandler.
func (f PacketHandlerFunc) HandlePacket(pkt *Packet) { f(pkt) }

// Host is an end system with a single uplink port. Transport endpoints
// (TCP connections, UDP sinks) register per-flow handlers; everything else
// goes to the Default handler.
type Host struct {
	s    *sim.Sim
	name string
	tx   *LinkEnd

	handlers []PacketHandler // by FlowID; nil where no flow is bound

	// Default, when set, receives packets with no per-flow handler.
	Default PacketHandler

	// pool issues the packets of everything that sends from this host.
	pool PacketPool

	Received uint64
}

// NewHost creates a host.
func NewHost(s *sim.Sim, name string) *Host {
	return &Host{s: s, name: name}
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Attach implements Node. A host has a single port (0).
func (h *Host) Attach(port int, tx *LinkEnd) {
	if port != 0 {
		panic(fmt.Sprintf("netsim: host %s only has port 0, got %d", h.name, port))
	}
	h.tx = tx
}

// Pool returns the host's packet pool: transports and traffic generators
// running on the host draw the packets they send from it.
func (h *Host) Pool() *PacketPool { return &h.pool }

// SetPool does nothing: a packet returns to the pool that issued it, so a
// host has no pool to install. It remains only because benchmark/, which a
// performance change may not edit, still calls it.
func (h *Host) SetPool(*PacketPool) {}

// Receive implements Node. Every packet that reaches a host dies here,
// once its handler (if any) has returned.
func (h *Host) Receive(pkt *Packet, port int) {
	h.Received++
	var hd PacketHandler
	if int(pkt.Flow) < len(h.handlers) {
		hd = h.handlers[pkt.Flow]
	}
	if hd == nil {
		hd = h.Default
	}
	if hd != nil {
		hd.HandlePacket(pkt)
	}
	pkt.release()
}

// Send transmits a packet out of the host's uplink. It reports false if the
// uplink queue dropped the packet or the host is not attached; either way
// the packet is no longer the caller's.
func (h *Host) Send(pkt *Packet) bool {
	if h.tx == nil {
		pkt.release()
		return false
	}
	return h.tx.Send(pkt)
}

// Bind registers handler for a flow. Binding nil removes the handler.
//
// The handlers are a table indexed by flow ID, so a host's table is as long
// as the largest flow ID ever bound on it: bind dense IDs. traffic.Driver
// numbers its flows from 0 and reserves the table once per Schedule; it and
// benchmark/'s TCP probe are the only binders outside tests (through tcp's
// NewSender); UDP sources bind nothing.
func (h *Host) Bind(flow FlowID, handler PacketHandler) {
	if int(flow) >= len(h.handlers) {
		if handler == nil {
			return
		}
		// Within a Reserved capacity this allocates nothing, also in a
		// race build, where append(s, make(...)...) always allocates.
		h.handlers = slices.Grow(h.handlers, int(flow)+1-len(h.handlers))[:flow+1]
	}
	h.handlers[flow] = handler
}

// Reserve makes room in the handler table for the flow IDs below flows, so
// that binding them allocates nothing more. The room at least doubles, so
// a driver that reserves batch after batch copies the table O(log n) times.
func (h *Host) Reserve(flows int) {
	if flows > cap(h.handlers) {
		h.handlers = append(make([]PacketHandler, 0, max(flows, 2*cap(h.handlers))), h.handlers...)
	}
}

// Sim returns the simulator the host is running on.
func (h *Host) Sim() *sim.Sim { return h.s }
