// Package topo builds multi-switch ISP topologies on the netsim substrate:
// named switches and hosts, links with per-link characteristics,
// shortest-path (Dijkstra) route installation and the loop-free backup
// rule. It knows nothing of FANcY: internal/fleet deploys a detector on
// every link of a Network (the full deployment of §4.3).
package topo

import (
	"fmt"
	"slices"
	"sort"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// LinkSpec is one bidirectional link between two named switches.
type LinkSpec struct {
	A, B    string
	Delay   sim.Time
	RateBps float64
}

// HostSpec attaches a named host to a switch.
type HostSpec struct {
	Name   string
	Attach string
}

// Spec describes a topology.
type Spec struct {
	Switches []string
	Links    []LinkSpec
	Hosts    []HostSpec
}

// Network is a built topology.
type Network struct {
	Sim      *sim.Sim
	Switches map[string]*netsim.Switch
	Hosts    map[string]*netsim.Host

	// PortOf[a][b] is switch a's port toward neighbor (switch or host) b.
	PortOf map[string]map[string]int

	links     map[string]*netsim.Link // key "a|b" in spec order
	linkCfg   map[string]netsim.LinkConfig
	adjacency map[string][]edge
	hostAddr  map[string]uint32
	hostAt    map[string]string

	// Shortest-path state. The topology is fixed once built, so the sorted
	// switch names (Dijkstra's scan and tie-break order) are computed once
	// and each destination's next-hop map is computed at most once.
	swNames  []string
	swIndex  map[string]int // position in swNames
	nextHops map[string]map[string]string
}

type edge struct {
	to    string
	delay sim.Time
}

// Build instantiates the topology. Hosts receive addresses 172.16.0.1,
// 172.16.0.2, … in spec order.
func Build(s *sim.Sim, spec Spec) (*Network, error) {
	n := &Network{
		Sim:       s,
		Switches:  make(map[string]*netsim.Switch),
		Hosts:     make(map[string]*netsim.Host),
		PortOf:    make(map[string]map[string]int),
		links:     make(map[string]*netsim.Link),
		linkCfg:   make(map[string]netsim.LinkConfig),
		adjacency: make(map[string][]edge),
		hostAddr:  make(map[string]uint32),
		hostAt:    make(map[string]string),
		swIndex:   make(map[string]int),
		nextHops:  make(map[string]map[string]string),
	}
	ports := make(map[string]int) // next free port per switch
	degree := make(map[string]int)
	for _, l := range spec.Links {
		degree[l.A]++
		degree[l.B]++
	}
	for _, h := range spec.Hosts {
		degree[h.Attach]++
	}
	for _, name := range spec.Switches {
		if _, dup := n.Switches[name]; dup {
			return nil, fmt.Errorf("topo: duplicate switch %q", name)
		}
		n.Switches[name] = netsim.NewSwitch(s, name, degree[name])
		n.PortOf[name] = make(map[string]int)
		n.swNames = append(n.swNames, name)
	}
	sort.Strings(n.swNames)
	for i, name := range n.swNames {
		n.swIndex[name] = i
	}
	alloc := func(sw string) int {
		p := ports[sw]
		ports[sw]++
		return p
	}
	for _, l := range spec.Links {
		a, okA := n.Switches[l.A]
		b, okB := n.Switches[l.B]
		if !okA || !okB {
			return nil, fmt.Errorf("topo: link %s—%s references unknown switch", l.A, l.B)
		}
		if l.Delay < 0 {
			return nil, fmt.Errorf("topo: link %s—%s has negative delay %v", l.A, l.B, l.Delay)
		}
		if l.RateBps < 0 {
			return nil, fmt.Errorf("topo: link %s—%s has negative rate %v", l.A, l.B, l.RateBps)
		}
		pa, pb := alloc(l.A), alloc(l.B)
		cfg := netsim.LinkConfig{Delay: l.Delay, RateBps: l.RateBps}
		if cfg.RateBps == 0 {
			cfg.RateBps = 100e9
		}
		n.links[l.A+"|"+l.B] = netsim.Connect(s, a, pa, b, pb, cfg)
		n.linkCfg[l.A+"|"+l.B] = cfg
		n.PortOf[l.A][l.B] = pa
		n.PortOf[l.B][l.A] = pb
		n.adjacency[l.A] = append(n.adjacency[l.A], edge{l.B, l.Delay})
		n.adjacency[l.B] = append(n.adjacency[l.B], edge{l.A, l.Delay})
	}
	for i, h := range spec.Hosts {
		sw, ok := n.Switches[h.Attach]
		if !ok {
			return nil, fmt.Errorf("topo: host %q attaches to unknown switch %q", h.Name, h.Attach)
		}
		host := netsim.NewHost(s, h.Name)
		host.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
		p := alloc(h.Attach)
		netsim.Connect(s, host, 0, sw, p, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 100e9})
		n.Hosts[h.Name] = host
		n.PortOf[h.Attach][h.Name] = p
		n.hostAddr[h.Name] = netsim.IPv4(172, 16, 0, byte(i+1))
		n.hostAt[h.Name] = h.Attach
	}
	return n, nil
}

// UsePool returns a fresh packet pool for traffic generators that want to
// share one (traffic.UDPSource.Pool) and read its Gets/Reuses counters.
// It installs nothing: packets find their own way back to the pool that
// issued them. It remains because benchmark/, which a performance change
// may not edit, calls it. Pools are single-threaded like the Sim; use one
// per trial.
func (n *Network) UsePool() *netsim.PacketPool { return netsim.NewPacketPool() }

// Direction returns the transmit end of the a→b direction of a link.
func (n *Network) Direction(a, b string) *netsim.LinkEnd {
	if l, ok := n.links[a+"|"+b]; ok {
		return l.AB
	}
	if l, ok := n.links[b+"|"+a]; ok {
		return l.BA
	}
	return nil
}

// HostAddr returns a host's address.
func (n *Network) HostAddr(name string) uint32 { return n.hostAddr[name] }

// HostAt returns the switch a host attaches to ("" if unknown).
func (n *Network) HostAt(name string) string { return n.hostAt[name] }

// linkConfig looks up the built configuration of the a—b link in either
// spec order.
func (n *Network) linkConfig(a, b string) (netsim.LinkConfig, bool) {
	if c, ok := n.linkCfg[a+"|"+b]; ok {
		return c, true
	}
	c, ok := n.linkCfg[b+"|"+a]
	return c, ok
}

// LinkDelay reports the one-way propagation delay of the a—b link (either
// order). The second result is false if no such link exists.
func (n *Network) LinkDelay(a, b string) (sim.Time, bool) {
	c, ok := n.linkConfig(a, b)
	return c.Delay, ok
}

// Neighbors lists the switches adjacent to sw, sorted for determinism.
func (n *Network) Neighbors(sw string) []string {
	var out []string
	for _, e := range n.adjacency[sw] {
		out = append(out, e.to)
	}
	sort.Strings(out)
	return out
}

// DirectedLink names one direction of an inter-switch link.
type DirectedLink struct {
	From, To string
}

// String renders the direction as "from->to", the key format used across
// deployment reports.
func (dl DirectedLink) String() string { return dl.From + "->" + dl.To }

// DirectedLinks enumerates both directions of every inter-switch link,
// sorted by (From, To) for determinism — the iteration order fleet-wide
// deployments build on.
func (n *Network) DirectedLinks() []DirectedLink {
	var out []DirectedLink
	for sw := range n.Switches {
		for _, e := range n.adjacency[sw] {
			out = append(out, DirectedLink{From: sw, To: e.to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// PathDelay sums the per-link propagation delays along the delay-weighted
// shortest path between two switches. The second result is false if no
// path exists.
func (n *Network) PathDelay(from, to string) (sim.Time, bool) {
	if from == to {
		return 0, true
	}
	next := n.paths(to)
	var total sim.Time
	for at := from; at != to; {
		nh, ok := next[at]
		if !ok {
			return 0, false
		}
		d, ok := n.LinkDelay(at, nh)
		if !ok {
			return 0, false
		}
		total += d
		at = nh
	}
	return total, true
}

// LoopFreeBackup picks the backup next hop for traffic that crosses dl: the
// neighbor of dl.From, other than dl.To, with the cheapest delay-weighted
// path to dl.To among those that provably avoid the dl.From→dl.To link. A
// neighbor nb qualifies when its shortest path to dl.To is strictly cheaper
// than going back through dl.From (nb→From plus the link itself) — such a
// path cannot traverse From, so diverting to nb cannot loop. The second
// result is false when dl is not a link or no neighbor qualifies.
func (n *Network) LoopFreeBackup(dl DirectedLink) (string, bool) {
	direct, ok := n.LinkDelay(dl.From, dl.To)
	if !ok {
		return "", false
	}
	best := ""
	var bestDelay sim.Time
	for _, nb := range n.Neighbors(dl.From) {
		if nb == dl.To {
			continue
		}
		detour, ok := n.PathDelay(nb, dl.To)
		if !ok {
			continue
		}
		back, _ := n.LinkDelay(nb, dl.From)
		if detour >= back+direct {
			continue // the detour may route back through From: unsafe
		}
		if best == "" || detour < bestDelay {
			best, bestDelay = nb, detour
		}
	}
	return best, best != ""
}

// paths returns the Dijkstra next hops toward dst (a switch name): for
// every switch, the neighbor on its delay-weighted shortest path to dst.
// The result is cached per destination and shared; callers must not modify
// it.
func (n *Network) paths(dst string) map[string]string {
	if next, ok := n.nextHops[dst]; ok {
		return next
	}
	di, ok := n.swIndex[dst]
	if !ok {
		return nil
	}
	const inf = int64(1) << 62
	dist := make([]int64, len(n.swNames)) // indexed like swNames
	for i := range dist {
		dist[i] = inf
	}
	dist[di] = 0
	visited := make([]bool, len(n.swNames))
	next := make(map[string]string, len(n.swNames))
	for {
		// Extract the closest unvisited switch; scanning in name order
		// with a strict comparison breaks ties by name, so the installed
		// routes are reproducible.
		u, best := -1, inf
		for i, d := range dist {
			if !visited[i] && d < best {
				best, u = d, i
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, e := range n.adjacency[n.swNames[u]] {
			to := n.swIndex[e.to]
			if d := dist[u] + int64(e.delay) + 1; d < dist[to] { // +1: hop count tie-break
				dist[to] = d
				next[e.to] = n.swNames[u]
			}
		}
	}
	n.nextHops[dst] = next
	return next
}

// InstallShortestPaths installs routes so that each entry's traffic reaches
// its owning host over delay-weighted shortest paths, and each host's own
// address is routable from everywhere (for reverse traffic and remote
// FANcY control messages). An entry owned by no known host is an error:
// its traffic would have no route anywhere.
func (n *Network) InstallShortestPaths(entryOwner map[netsim.EntryID]string) error {
	ids := make([]netsim.EntryID, 0, len(entryOwner))
	for e := range entryOwner {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	// Each host's entries, ascending.
	owned := make(map[string][]netsim.EntryID, len(n.hostAddr))
	for _, e := range ids {
		owner := entryOwner[e]
		if _, ok := n.hostAddr[owner]; !ok {
			return fmt.Errorf("topo: entry %d is owned by unknown host %q", e, owner)
		}
		owned[owner] = append(owned[owner], e)
	}
	for _, sw := range n.Switches {
		sw.Routes.Grow(len(n.hostAddr) + len(ids))
	}
	for host := range n.hostAddr {
		attach := n.hostAt[host]
		next := n.paths(attach)
		for sw := range n.Switches {
			var port int
			if sw == attach {
				port = n.PortOf[sw][host]
			} else {
				nh, ok := next[sw]
				if !ok {
					return fmt.Errorf("topo: switch %q cannot reach host %q", sw, host)
				}
				port = n.PortOf[sw][nh]
			}
			// The host's own /32.
			if _, err := n.Switches[sw].Routes.Insert(n.hostAddr[host], 32,
				netsim.Route{Port: port, Backup: -1}); err != nil {
				return err
			}
			for _, e := range owned[host] {
				n.Switches[sw].Routes.InsertEntry(e, netsim.Route{Port: port, Backup: -1})
			}
		}
	}
	return nil
}
