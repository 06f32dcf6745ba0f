package netsim

import "fancy/internal/sim"

// LinkBed is the topology every per-link result of the paper is measured
// on — a sender, an upstream switch, the monitored link, a downstream
// switch, a receiver — and the only place in the repo that wires it:
//
//	Src — Up(0) … Up(1) ——Link—— Down(0) … Down(1) — Dst
//	              Up(2) ——Backup—— Down(2)
//
// Both switches route 172.16/16 (the hosts' source prefix) toward Src and
// everything else toward Dst over port 1, and both hosts swallow packets no
// flow has bound. Link.AB is the monitored, failure-injected direction: the
// upstream detector monitors Up's port 1 and the downstream one listens on
// Down's port 0.
type LinkBed struct {
	Sim      *sim.Sim
	Src, Dst *Host
	Up, Down *Switch
	Link     *Link
	Backup   *Link    // the Fig. 10 detour over port 2; nil unless asked for
	Edges    [2]*Link // Src — Up, Down — Dst
}

// NewLinkBed builds the bed on s. edge configures the two host links, core
// the monitored link and, with backup set, the parallel backup link that a
// Route{Port: 1, Backup: 2} entry on Up diverts over. The construction order
// — hosts, switches, Src—Up, Up—Down, backup, Down—Dst, routes — is part of
// the contract: callers deploy detectors after it, and the goldens pin the
// event sequence numbers that order yields.
func NewLinkBed(s *sim.Sim, edge, core LinkConfig, backup bool) *LinkBed {
	ports := 2
	if backup {
		ports = 3
	}
	b := &LinkBed{
		Sim: s,
		Src: NewHost(s, "src"), Dst: NewHost(s, "dst"),
		Up: NewSwitch(s, "up", ports), Down: NewSwitch(s, "down", ports),
	}
	b.Edges[0] = Connect(s, b.Src, 0, b.Up, 0, edge)
	b.Link = Connect(s, b.Up, 1, b.Down, 0, core)
	if backup {
		b.Backup = Connect(s, b.Up, 2, b.Down, 2, core)
	}
	b.Edges[1] = Connect(s, b.Down, 1, b.Dst, 0, edge)
	for _, sw := range []*Switch{b.Up, b.Down} {
		sw.Routes.Insert(0, 0, Route{Port: 1, Backup: -1})
		sw.Routes.Insert(IPv4(172, 16, 0, 0), 16, Route{Port: 0, Backup: -1})
	}
	b.Src.Default = PacketHandlerFunc(func(*Packet) {})
	b.Dst.Default = PacketHandlerFunc(func(*Packet) {})
	return b
}

// AttachProbe puts a two-sided loss meter on the monitored direction: p sees
// every packet as Up serializes it and again as it arrives at Down.
func (b *LinkBed) AttachProbe(p interface {
	EgressHook
	IngressHook
}) {
	b.Up.AddEgressHook(p)
	b.Up.RefreshEgressHooks()
	b.Down.AddIngressHook(p)
}
