package main

import (
	"fmt"
	"sort"

	"fancy/internal/fancy"
	"fancy/internal/fleet"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/traffic"
	"fancy/internal/verify"
)

// grayLink is one failure to inject in a fleet trial: entry's packets are
// black-holed on the directed link from failAt on.
type grayLink struct {
	dl     topo.DirectedLink
	entry  netsim.EntryID
	src    string // host the entry's traffic starts at
	failAt sim.Time
}

// flow is one constant-bit-rate UDP source of a fleet trial.
type flow struct {
	entry   netsim.EntryID
	src     string // host names
	dst     string
	rateBps float64
}

const udpPktBytes = 1000

// fleetTrial is one simulator instance of a fleet workload, between
// topo.Build and the counters read after the run.
type fleetTrial struct {
	p     *pass
	s     *sim.Sim
	n     *topo.Network
	f     *fleet.Fleet
	ends  []*netsim.LinkEnd // every inter-switch direction, sorted
	srcs  []*traffic.UDPSource
	pool  *netsim.PacketPool
	fails []grayLink
	base  int // index of the trial's first op in p.ops

	detectorEvents int
}

// buildFleet runs the set-up boundaries topo.build, topo.install_paths and
// fleet.new. Routes are installed before fleet.New, which the verify gate
// needs to snapshot the forwarding state.
func buildFleet(p *pass, seed int64, spec topo.Spec, flows []flow, cfg fleet.Config) *fleetTrial {
	return buildFleetWith(p, seed, spec, flows, func(*topo.Network) fleet.Config { return cfg })
}

// buildFleetWith is buildFleet for a configuration that depends on the
// installed routes: configure runs between topo.install_paths and fleet.new,
// outside both.
func buildFleetWith(p *pass, seed int64, spec topo.Spec, flows []flow,
	configure func(*topo.Network) fleet.Config) *fleetTrial {
	t := &fleetTrial{p: p, s: sim.New(seed)}
	p.call(bTopoBuild, func() {
		n, err := topo.Build(t.s, spec)
		if err != nil {
			panic(fmt.Sprintf("benchmark: topo.Build: %v", err))
		}
		t.n = n
	})
	owners := make(map[netsim.EntryID]string, len(flows))
	for _, fl := range flows {
		owners[fl.entry] = fl.dst
	}
	p.call(bInstallPaths, func() {
		if err := t.n.InstallShortestPaths(owners); err != nil {
			panic(fmt.Sprintf("benchmark: InstallShortestPaths: %v", err))
		}
	})
	cfg := configure(t.n)
	p.probeFancy = cfg.Fancy
	if cfg.HH != nil {
		// fleet.New projects its heavy-hitter knobs onto every detector.
		p.probeFancy.HH = &fancy.HHStageConfig{Sketch: cfg.HH.Sketch}
		p.probeFancy.DynamicSlots = cfg.HH.DynamicSlots
	}
	p.call(bFleetNew, func() {
		f, err := fleet.New(t.s, t.n, cfg)
		if err != nil {
			panic(fmt.Sprintf("benchmark: fleet.New: %v", err))
		}
		t.f = f
	})
	for _, sw := range sortedKeys(t.f.Detectors) {
		det := t.f.Detectors[sw]
		inner := det.OnEvent
		det.OnEvent = func(ev fancy.Event) {
			t.detectorEvents++
			inner(ev)
		}
	}
	for _, dl := range t.n.DirectedLinks() {
		t.ends = append(t.ends, t.n.Direction(dl.From, dl.To))
	}
	return t
}

// startTraffic is the traffic.start boundary: one UDP source per flow, drawing
// from the network's packet pool when pooled is set.
func (t *fleetTrial) startTraffic(flows []flow, pooled bool, stop sim.Time) {
	t.p.call(bTrafficStart, func() {
		if pooled {
			t.pool = t.n.UsePool()
		}
		for _, fl := range flows {
			src := traffic.NewUDPSource(t.s, t.n.Hosts[fl.src], netsim.FlowID(fl.entry), fl.entry,
				netsim.EntryAddr(fl.entry, 1), fl.rateBps, udpPktBytes, stop)
			src.Pool = t.pool
			src.Start()
			t.srcs = append(t.srcs, src)
		}
	})
}

// inject registers the trial's failures as operations, checks that each
// entry's installed route crosses its link, protects the entry where a
// provably loop-free detour exists, and arms the black hole.
func (t *fleetTrial) inject(seed int64, fails []grayLink) {
	t.fails, t.base = fails, len(t.p.ops)
	for i, g := range fails {
		o := op{name: fmt.Sprintf("%s/%d", g.dl, g.entry)}
		o.crosses = routeCrosses(t.n, t.n.HostAt(g.src), g.dl, g.entry)
		if nb, ok := loopFreeBackup(t.n, g.dl); ok {
			route := t.n.Switches[g.dl.From].Routes.InsertEntry(g.entry, netsim.Route{
				Port:   t.n.PortOf[g.dl.From][g.dl.To],
				Backup: t.n.PortOf[g.dl.From][nb],
			})
			if err := t.f.Protect(g.dl.From, g.entry, route); err != nil {
				panic(fmt.Sprintf("benchmark: Protect: %v", err))
			}
			o.protected = true
			if t.p.traced {
				t.p.probeNet = t.n
				t.p.probeFlip = verify.NewDelta(g.dl.String(),
					[]verify.Flip{verify.EntryFlip(g.dl.From, g.entry, route.Backup)})
			}
		}
		t.p.ops = append(t.p.ops, o)
		t.n.Direction(g.dl.From, g.dl.To).SetFailure(
			netsim.FailEntries(seed+1+int64(i), g.failAt, 1.0, g.entry))
	}
}

// finish runs the simulator to the horizon, scores the operations from the
// fleet's event log and reads every layer's counters.
func (t *fleetTrial) finish(horizon sim.Time) {
	p := t.p
	p.run(t.s, t.ends, horizon)

	failedLink := make(map[string]int, len(t.fails)) // link key → op index
	failedEntry := make(map[netsim.EntryID]int, len(t.fails))
	for i, g := range t.fails {
		failedLink[g.dl.String()] = t.base + i
		failedEntry[g.entry] = t.base + i
	}
	verdicts := make(map[string]int)
	for _, ev := range t.f.Events {
		switch ev.Kind {
		case fleet.EventLocalized:
			verdicts[ev.Link]++
			i, ok := failedLink[ev.Link]
			switch {
			case !ok:
				p.falseVerdicts++ // a healthy link localized
			case verdicts[ev.Link] > 1:
				p.falseVerdicts++ // a duplicate verdict
			default:
				p.ops[i].ttl = ev.Time - t.fails[i-t.base].failAt
			}
		case fleet.EventRerouted:
			if i, ok := failedEntry[ev.Entry]; ok && !p.ops[i].rerouted {
				p.ops[i].rerouted = true
				p.ops[i].reroute = ev.Time - t.fails[i-t.base].failAt
			}
		}
	}
	localized := make(map[string]bool)
	for _, key := range t.f.Localized() {
		localized[key] = true
	}
	for i, g := range t.fails {
		o := &p.ops[t.base+i]
		o.exact = localized[g.dl.String()] && verdicts[g.dl.String()] == 1 && o.ttl > 0
	}

	var snap fleet.Snapshot
	p.call(bSnapshot, func() { snap = t.f.Snapshot() })
	t.readCounters(snap)
}

func (t *fleetTrial) readCounters(snap fleet.Snapshot) {
	p := t.p
	for _, e := range t.ends {
		st := e.Stats()
		p.addLinkStats(st)
		p.add("netsim.monitored_pkts", st.Sent)
	}
	for _, h := range sortedKeys(t.n.Hosts) {
		// The switch→host direction; a host's uplink has no public handle.
		at := t.n.HostAt(h)
		p.addLinkStats(t.n.Switches[at].Port(t.n.PortOf[at][h]).Stats())
	}
	for _, sw := range sortedKeys(t.n.Switches) {
		p.peak("netsim.routes_max", uint64(t.n.Switches[sw].Routes.Len()))
		p.add("netsim.forwarded", t.n.Switches[sw].Forwarded)
		p.addDetector(t.f.Detectors[sw])
	}
	if t.pool != nil {
		p.add("netsim.pool_gets", t.pool.Gets)
		p.add("netsim.pool_reuses", t.pool.Reuses)
	}
	for _, src := range t.srcs {
		p.add("traffic.udp_pkts", src.Sent)
	}
	p.add("traffic.flows", uint64(len(t.srcs)))
	p.add("topo.switches", uint64(len(t.n.Switches)))
	p.add("topo.directed_links", uint64(len(t.ends)))

	for _, l := range snap.Links {
		p.add("fancy.sessions", l.Sessions)
	}
	p.add("fancy.detector_events", uint64(t.detectorEvents))
	p.add("fleet.alarms", uint64(snap.Alarms))
	p.add("fleet.suppressed", uint64(snap.Suppressed))
	p.add("fleet.localizations", uint64(snap.Localizations))
	p.add("fleet.reroutes", uint64(snap.Reroutes))
	p.add("fleet.checkpoints", snap.Corr.Checkpoints)
	p.add("fleet.elections", snap.Corr.Elections)
	p.add("fleet.failovers", snap.Corr.Failovers)
	p.add("fleet.commit_index", snap.CommitIndex)
	p.add("fleet.wire_rejects", snap.Corr.WireRejects)
	p.add("fleet.get_fails", snap.Corr.GetFails)

	p.add("hh.reports", snap.HH.Reports)
	p.add("hh.promotions", snap.HH.Promotions)
	p.add("hh.demotions", snap.HH.Demotions)
	p.add("hh.deferred", snap.HH.Deferred)
	p.add("hh.decode_errors", snap.HH.DecodeErrors)

	p.add("verify.checked", snap.Verify.Checked)
	p.add("verify.atoms_checked", snap.Verify.AtomsChecked)
	p.add("verify.rejected", snap.Verify.Rejected)
	p.add("verify.repaired", snap.Verify.Repaired)
	p.add("verify.fallbacks", snap.Verify.Fallbacks)
	p.peak("verify.model_atoms", uint64(snap.VerifyAtoms))

	p.add("mgmt.dgrams_sent", snap.MgmtNet.Sent)
	p.add("mgmt.dgrams_delivered", snap.MgmtNet.Delivered)
	p.add("mgmt.dgrams_lost", snap.MgmtNet.Lost)
	p.add("mgmt.duplicates_suppressed", snap.MgmtDuplicates)
	p.add("mgmt.holes", uint64(snap.MgmtHoles))
	for _, a := range snap.Agents {
		p.add("mgmt.report_retries", a.Stats.Retries)
		p.add("mgmt.heartbeats", a.Stats.Heartbeats)
	}
}

// nextHop follows the route installed at switch at for addr: the neighbouring
// switch its egress port leads to, or "" if there is no route or the port
// leads to a host.
func nextHop(n *topo.Network, at string, addr uint32) string {
	r := n.Switches[at].Routes.Lookup(addr)
	if r == nil {
		return ""
	}
	for _, nb := range n.Neighbors(at) {
		if n.PortOf[at][nb] == r.Port {
			return nb
		}
	}
	return ""
}

// routePath walks entry's installed routes from switch from and returns the
// inter-switch links the walk traverses before it is delivered to a host.
func routePath(n *topo.Network, from string, entry netsim.EntryID) []topo.DirectedLink {
	addr := netsim.EntryAddr(entry, 1)
	var path []topo.DirectedLink
	for at := from; len(path) <= len(n.Switches); {
		next := nextHop(n, at, addr)
		if next == "" {
			return path
		}
		path = append(path, topo.DirectedLink{From: at, To: next})
		at = next
	}
	return path
}

// routeCrosses reports whether entry's installed route from switch from
// traverses dl. A trial whose entry never reaches its failed link measures
// nothing.
func routeCrosses(n *topo.Network, from string, dl topo.DirectedLink, entry netsim.EntryID) bool {
	for _, hop := range routePath(n, from, entry) {
		if hop == dl {
			return true
		}
	}
	return false
}

// loopFreeBackup picks From's cheapest neighbor detour toward To that
// provably avoids the From→To link: a neighbor whose installed path to To is
// strictly cheaper than going back through From cannot traverse it. The
// proof assumes the direct link is itself the shortest From→To path, so no
// backup is offered where it is not.
func loopFreeBackup(n *topo.Network, dl topo.DirectedLink) (string, bool) {
	if !directIsShortest(n, dl) {
		return "", false
	}
	direct, _ := n.LinkDelay(dl.From, dl.To)
	best := ""
	var bestDelay sim.Time
	for _, nb := range n.Neighbors(dl.From) {
		if nb == dl.To {
			continue
		}
		detour, ok := routeDelay(n, nb, dl.To)
		if !ok {
			continue
		}
		back, _ := n.LinkDelay(nb, dl.From)
		if detour >= back+direct {
			continue // the detour may route back through From
		}
		if best == "" || detour < bestDelay {
			best, bestDelay = nb, detour
		}
	}
	return best, best != ""
}

// hostOf names the host every fleet workload attaches to switch sw.
func hostOf(sw string) string { return "h-" + sw }

// directIsShortest reports whether the route installed at dl.From toward
// dl.To's host leaves over the direct link — on the grid the direct link is
// not always the delay-shortest path between its ends.
func directIsShortest(n *topo.Network, dl topo.DirectedLink) bool {
	r := n.Switches[dl.From].Routes.Lookup(n.HostAddr(hostOf(dl.To)))
	return r != nil && r.Port == n.PortOf[dl.From][dl.To]
}

// routeDelay sums the link delays along the installed route from switch from
// to switch to's host. It reads the same shortest paths as
// topo.Network.PathDelay without re-running Dijkstra per query, which on the
// 144-switch grid would cost more than the trial's own set-up.
func routeDelay(n *topo.Network, from, to string) (sim.Time, bool) {
	addr := n.HostAddr(hostOf(to))
	var total sim.Time
	at := from
	for hops := 0; at != to; hops++ {
		next := nextHop(n, at, addr)
		if next == "" || hops > len(n.Switches) {
			return 0, false
		}
		d, _ := n.LinkDelay(at, next)
		total += d
		at = next
	}
	return total, true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
