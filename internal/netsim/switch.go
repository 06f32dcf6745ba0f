package netsim

import (
	"fmt"

	"fancy/internal/sim"
)

// IngressHook observes packets as they arrive at a switch port, before the
// traffic manager — the position where FANcY's receiver-side counting runs
// (§3: "counted after the TM of the upstream switch and before the TM of
// the downstream one"). Returning true consumes the packet (control
// messages addressed to the switch). The packet is borrowed for the
// duration of the call either way (see Packet).
type IngressHook interface {
	OnIngress(pkt *Packet, port int) (consumed bool)
}

// EgressHook observes packets after the traffic manager, as they begin
// serialization on an output port — the sender-side counting position.
type EgressHook interface {
	OnEgress(pkt *Packet, port int)
}

// Switch is a P4-like packet-forwarding device: parser and ingress pipeline
// (the ingress hooks plus the LPM routing lookup), traffic manager (the
// per-port transmit queues inside each attached link direction), and egress
// pipeline (the egress hooks).
type Switch struct {
	s     *sim.Sim
	name  string
	ports []*LinkEnd

	Routes RouteTable

	ingressHooks []IngressHook
	egressHooks  []EgressHook

	// Stats per switch.
	Forwarded   uint64
	NoRoute     uint64
	Consumed    uint64
	onForwarded func(pkt *Packet, inPort, outPort int)
}

// NewSwitch creates a switch with the given number of ports.
func NewSwitch(s *sim.Sim, name string, numPorts int) *Switch {
	return &Switch{s: s, name: name, ports: make([]*LinkEnd, numPorts)}
}

// Name implements Node.
func (sw *Switch) Name() string { return sw.name }

// Attach implements Node.
func (sw *Switch) Attach(port int, tx *LinkEnd) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("netsim: switch %s has no port %d", sw.name, port))
	}
	if sw.ports[port] != nil {
		panic(fmt.Sprintf("netsim: switch %s port %d already attached", sw.name, port))
	}
	sw.ports[port] = tx
}

// Port returns the transmit handle for a port (nil if unattached).
func (sw *Switch) Port(port int) *LinkEnd {
	if port < 0 || port >= len(sw.ports) {
		return nil
	}
	return sw.ports[port]
}

// NumPorts reports the switch's port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// AddIngressHook registers an ingress-pipeline observer.
func (sw *Switch) AddIngressHook(h IngressHook) { sw.ingressHooks = append(sw.ingressHooks, h) }

// AddEgressHook registers an egress-pipeline observer. The hook fires after
// the traffic manager, so congestion drops are never observed by it.
func (sw *Switch) AddEgressHook(h EgressHook) { sw.egressHooks = append(sw.egressHooks, h) }

// OnForwarded installs a tap invoked for every forwarded packet, used by
// experiment drivers for accounting. The tap borrows the packet.
func (sw *Switch) OnForwarded(fn func(pkt *Packet, inPort, outPort int)) { sw.onForwarded = fn }

// Receive implements Node: the ingress pipeline. A packet that an ingress
// hook consumes, or that has no route, dies here.
func (sw *Switch) Receive(pkt *Packet, port int) {
	for _, h := range sw.ingressHooks {
		if h.OnIngress(pkt, port) {
			sw.Consumed++
			pkt.release()
			return
		}
	}
	route := sw.Routes.Lookup(pkt.Dst)
	if route == nil {
		sw.NoRoute++
		pkt.release()
		return
	}
	sw.forward(pkt, port, route.Egress())
}

// Inject sends a locally generated packet (e.g. a FANcY control message)
// out of the given port, passing through the egress pipeline like any other
// packet. Like Send, it takes the packet whether or not it reports success.
func (sw *Switch) Inject(pkt *Packet, outPort int) bool {
	return sw.forward(pkt, -1, outPort)
}

func (sw *Switch) forward(pkt *Packet, inPort, outPort int) bool {
	tx := sw.Port(outPort)
	if tx == nil {
		sw.NoRoute++
		pkt.release()
		return false
	}
	sw.Forwarded++
	if sw.onForwarded != nil {
		sw.onForwarded(pkt, inPort, outPort)
	}
	// The link's transmit path invokes egress hooks at serialization start
	// (after the TM queue admission decision).
	if tx.dir.egressHook == nil && len(sw.egressHooks) > 0 {
		sw.installEgress(tx, outPort)
	}
	return tx.Send(pkt)
}

func (sw *Switch) installEgress(tx *LinkEnd, port int) {
	hooks := sw.egressHooks
	tx.dir.egressHook = func(pkt *Packet) {
		for _, h := range hooks {
			h.OnEgress(pkt, port)
		}
	}
}

// RefreshEgressHooks re-installs egress hooks on all attached ports; call it
// after adding hooks if traffic has already flowed.
func (sw *Switch) RefreshEgressHooks() {
	for port, tx := range sw.ports {
		if tx != nil {
			sw.installEgress(tx, port)
		}
	}
}
