package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fancy/internal/fancy"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/topo"
	"fancy/internal/verify"
	"fancy/internal/wire"
)

// Probes are tight loops over one public function of a layer, sized from the
// counts the traced pass just observed. They give unit costs; a layer's
// est_s is its count times its unit cost. A probe that has to run a
// simulator to reach its function reports what one operation costs including
// the simulator events it takes — the steady, directly comparable number —
// less the link hops of its packets where it sits above netsim. For est_s the
// events are taken out again at the floor cost of an event (a depth-1 heap),
// because sim.est_s already charges every event of the workload: the est_s
// of stacked layers do not overlap and can be summed. Heap work beyond the
// floor that a layer's event pattern causes stays with that layer.

// Probe loop lengths and repetitions: long enough for a steady unit cost on a
// full run, short enough for tier-1 on a smoke run. Every timing is the
// minimum over the repetitions, the one the host disturbed least.
const (
	probeOpsFull   = 200_000
	probeOpsSmoke  = 4_000
	probeRepsFull  = 5
	probeRepsSmoke = 1
)

// probeSizes is what the probes take from the traced pass.
type probeSizes struct {
	ops       int          // iterations of a per-packet probe loop
	reps      int          // repetitions of every probe
	heapDepth int          // sim.pending_max
	routes    int          // netsim.routes_max
	fancy     fancy.Config // the workload's detector configuration
	net       *topo.Network
	flip      *verify.Delta // one protected entry's backup flip on net
}

// timed runs fn once and returns its host time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// perOp is d spread over n operations, in nanoseconds.
func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// lcg is a cheap deterministic generator for probe inputs.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

// probeSimChurn is the event loop's steady state at a given heap depth: every
// executed event schedules one successor at a random future time. It returns
// ns and allocations per event.
func probeSimChurn(ops, depth int) (ns, allocs float64) {
	if depth < 1 {
		depth = 1
	}
	s := sim.New(1)
	rng := lcg(1)
	left := ops
	var fn func()
	fn = func() {
		if left > 0 {
			left--
			s.After(sim.Time(1+rng.next()%uint64(sim.Millisecond)), fn)
		}
	}
	for i := 0; i < depth; i++ {
		s.After(sim.Time(1+rng.next()%uint64(sim.Millisecond)), fn)
	}
	d, m := timed(func() { s.Run(0) })
	n := float64(s.Executed)
	return float64(d.Nanoseconds()) / n, float64(m) / n
}

// probeTimerStop is the RTO pattern: arm a timer above a heap of the given
// depth and cancel it. It returns ns per arm+cancel pair.
func probeTimerStop(ops, depth int) float64 {
	s := sim.New(1)
	rng := lcg(2)
	for i := 0; i < depth; i++ {
		s.After(sim.Second+sim.Time(rng.next()%uint64(sim.Second)), func() {})
	}
	d, _ := timed(func() {
		for i := 0; i < ops; i++ {
			t := s.ScheduleTimer(sim.Time(1+rng.next()%uint64(2*sim.Second)), func() {})
			t.Stop()
		}
	})
	return perOp(d, ops)
}

// simProbe is the result of a probe that has to run a simulator: its host
// time per operation, and the simulator events and link packets one
// operation took.
type simProbe struct {
	ns     float64
	events float64
	pkts   float64
}

var probeLink = netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 24}

// sendEvery emits n pooled UDP packets from h, one per microsecond.
func sendEvery(s *sim.Sim, h *netsim.Host, pool *netsim.PacketPool, n int, dst func(i int) uint32) {
	i := 0
	var tick func()
	tick = func() {
		pkt := pool.Get()
		pkt.Proto, pkt.Size, pkt.Dst = netsim.ProtoUDP, udpPktBytes, dst(i)
		h.Send(pkt)
		if i++; i < n {
			s.After(sim.Microsecond, tick)
		}
	}
	s.After(0, tick)
}

// probeLinkHop is one packet over one link between two hosts: queue
// admission, both lanes, delivery.
func probeLinkHop(ops int) simProbe {
	s := sim.New(1)
	a, z := netsim.NewHost(s, "a"), netsim.NewHost(s, "z")
	pool := netsim.NewPacketPool()
	z.SetPool(pool)
	netsim.Connect(s, a, 0, z, 0, probeLink)
	sendEvery(s, a, pool, ops, func(int) uint32 { return 1 })
	d, _ := timed(func() { s.Run(0) })
	return simProbe{ns: perOp(d, ops), events: float64(s.Executed) / float64(ops), pkts: 1}
}

// probeSwitchFwd is one packet through a switch whose table holds routes
// prefixes: ingress, longest-prefix match, forward, and a link hop either side.
func probeSwitchFwd(ops, routes int) simProbe {
	s := sim.New(1)
	a, z := netsim.NewHost(s, "a"), netsim.NewHost(s, "z")
	sw := netsim.NewSwitch(s, "sw", 2)
	pool := netsim.NewPacketPool()
	z.SetPool(pool)
	netsim.Connect(s, a, 0, sw, 0, probeLink)
	netsim.Connect(s, sw, 1, z, 0, probeLink)
	for e := 0; e < routes; e++ {
		sw.Routes.InsertEntry(netsim.EntryID(e), netsim.Route{Port: 1, Backup: -1})
	}
	rng := lcg(3)
	sendEvery(s, a, pool, ops, func(int) uint32 {
		return netsim.EntryAddr(netsim.EntryID(rng.next()%uint64(routes)), 1)
	})
	d, _ := timed(func() { s.Run(0) })
	return simProbe{ns: perOp(d, ops), events: float64(s.Executed) / float64(ops), pkts: 2}
}

// probeLookup is RouteTable.Lookup alone on a table of routes prefixes.
func probeLookup(ops, routes int) float64 {
	var t netsim.RouteTable
	for e := 0; e < routes; e++ {
		t.InsertEntry(netsim.EntryID(e), netsim.Route{Port: 1, Backup: -1})
	}
	rng := lcg(4)
	hits := 0
	d, _ := timed(func() {
		for i := 0; i < ops; i++ {
			if t.Lookup(netsim.EntryAddr(netsim.EntryID(rng.next()%uint64(routes)), 1)) != nil {
				hits++
			}
		}
	})
	if hits != ops {
		panic("probe: lookup missed an installed prefix")
	}
	return perOp(d, ops)
}

// probeTCPSegment is one bulk flow over one link: per data segment, the
// sender's window and timer work plus the receiver's ACK.
func probeTCPSegment(ops int) simProbe {
	s := sim.New(1)
	a, z := netsim.NewHost(s, "a"), netsim.NewHost(s, "z")
	l := netsim.Connect(s, a, 0, z, 0, probeLink)
	snd := tcp.NewSender(s, a, z, 1, 1, 1, 2, int64(ops)*1460, tcp.Config{})
	snd.Start()
	d, _ := timed(func() { s.Run(0) })
	if !snd.Done() {
		panic("probe: tcp flow did not complete")
	}
	segs := float64(snd.Stats.SegmentsSent)
	return simProbe{ns: float64(d.Nanoseconds()) / segs, events: float64(s.Executed) / segs,
		pkts: float64(l.AB.Stats().Sent+l.BA.Stats().Sent) / segs}
}

// fancyProbes times the detector's three per-packet entry points on an open
// counting session of the workload's own configuration.
func fancyProbes(ops int, cfg fancy.Config) (egressDed, egressTree, ingressTagged float64) {
	s := sim.New(1)
	up, down := netsim.NewSwitch(s, "up", 2), netsim.NewSwitch(s, "down", 2)
	netsim.Connect(s, up, 1, down, 0, probeLink)
	det, err := fancy.NewDetector(s, up, cfg)
	if err != nil {
		panic(fmt.Sprintf("probe: detector: %v", err))
	}
	downDet, err := fancy.NewDetector(s, down, cfg)
	if err != nil {
		panic(fmt.Sprintf("probe: detector: %v", err))
	}
	downDet.ListenPort(0)
	det.MonitorPort(1)
	// Start/StartACK take one round trip; stop well inside the first session.
	s.Run(4 * sim.Millisecond)

	ded := cfg.HighPriority[0]
	best := netsim.EntryID(1 << 20) // best-effort: far above any dedicated entry
	loop := func(entry netsim.EntryID, each func(pkt *netsim.Packet)) float64 {
		pkt := &netsim.Packet{Proto: netsim.ProtoUDP, Entry: entry}
		d, _ := timed(func() {
			for i := 0; i < ops; i++ {
				pkt.Size = udpPktBytes
				each(pkt)
			}
		})
		return perOp(d, ops)
	}
	egress := func(pkt *netsim.Packet) { pkt.Tagged = false; det.OnEgress(pkt, 1) }
	egressDed = loop(ded, egress)
	egressTree = loop(best, egress)

	tagged := &netsim.Packet{Proto: netsim.ProtoUDP, Entry: ded, Size: udpPktBytes}
	det.OnEgress(tagged, 1)
	if !tagged.Tagged || tagged.TagKind != wire.KindDedicated {
		panic("probe: no open dedicated counting session to tag against")
	}
	tag, kind := tagged.Tag, tagged.TagKind
	ingressTagged = loop(ded, func(pkt *netsim.Packet) {
		pkt.Tagged, pkt.Tag, pkt.TagKind = true, tag, kind
		downDet.OnIngress(pkt, 0)
	})
	return egressDed, egressTree, ingressTagged
}

// wireProbes times the Report codec at the width of the workload's tree.
func wireProbes(ops int, cfg fancy.Config) (marshal, unmarshal, allocs float64) {
	nodes := 1
	for l, n := 1, 1; cfg.Tree.Pipelined && l < cfg.Tree.Depth; l++ {
		n *= cfg.Tree.Split
		nodes += n
	}
	m := wire.Message{Header: wire.Header{Type: wire.MsgReport, Kind: wire.KindTree, Epoch: 1, Unit: wire.TreeUnit},
		Counters: make([]uint64, nodes*cfg.Tree.Width)}
	for i := range m.Counters {
		m.Counters[i] = uint64(i)
	}
	n := ops/20 + 1 // a 190-wide report is 5 KB
	var buf []byte
	dm, am := timed(func() {
		for i := 0; i < n; i++ {
			buf = m.Marshal(buf[:0])
		}
	})
	var scratch wire.Message
	du, au := timed(func() {
		for i := 0; i < n; i++ {
			if _, err := wire.UnmarshalInto(buf, &scratch); err != nil {
				panic(fmt.Sprintf("probe: unmarshal: %v", err))
			}
		}
	})
	return perOp(dm, n), perOp(du, n), float64(am+au) / float64(2*n)
}

// hhProbes times the sketch's per-packet update and the agent's decode of one
// top-k digest.
func hhProbes(ops int) (observe, decode float64) {
	sk := hh.NewSketch(hh.Params{})
	rng := lcg(5)
	d, _ := timed(func() {
		for i := 0; i < ops; i++ {
			sk.Observe(netsim.EntryID(rng.next() % 300))
		}
	})
	observe = perOp(d, ops)
	frame := hh.EncodeReport(&hh.Report{Port: 1, Epoch: 1, Seq: 1, Entries: sk.TopK(fancy.DefaultHHTopK)})
	n := ops/4 + 1
	d, _ = timed(func() {
		for i := 0; i < n; i++ {
			if _, err := hh.DecodeReport(frame); err != nil {
				panic(fmt.Sprintf("probe: hh decode: %v", err))
			}
		}
	})
	return observe, perOp(d, n)
}

// probeMgmtReport is one report over a perfect management network: the
// client's send, the server's dedup and ack, the client's ack handling.
func probeMgmtReport(ops int) simProbe {
	s := sim.New(1)
	net := mgmt.NewNetwork(s, mgmt.Config{})
	srv := mgmt.NewServer(s, net, "srv")
	got := 0
	srv.OnReport = func(string, uint64, any) { got++ }
	c := mgmt.NewClient(s, net, "c", "srv")
	n := ops/4 + 1
	i := 0
	var tick func()
	tick = func() {
		c.Send(i)
		if i++; i < n {
			s.After(100*sim.Microsecond, tick)
		}
	}
	s.After(0, tick)
	horizon := sim.Time(n)*100*sim.Microsecond + 100*sim.Millisecond
	d, _ := timed(func() { s.Run(horizon) })
	if got != n {
		panic(fmt.Sprintf("probe: mgmt delivered %d of %d reports", got, n))
	}
	return simProbe{ns: perOp(d, n), events: float64(s.Executed) / float64(n)}
}

// verifyProbes times the gate's model snapshot of the traced pass's last
// network and one incremental check of a protected entry's flip.
func verifyProbes(ops int, net *topo.Network, flip *verify.Delta) (newModel, check float64) {
	if net == nil {
		return 0, 0
	}
	var m *verify.Model
	d, _ := timed(func() { m = verify.NewModel(net) })
	newModel = float64(d.Nanoseconds())
	if flip == nil {
		return newModel, 0
	}
	n := ops/20 + 1
	d, _ = timed(func() {
		for i := 0; i < n; i++ {
			if _, err := m.Check(flip); err != nil {
				panic(fmt.Sprintf("probe: verify check: %v", err))
			}
		}
	})
	return newModel, perOp(d, n)
}

// least runs probe reps times and returns the smallest result.
func least(reps int, probe func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		best = math.Min(best, probe())
	}
	return best
}

// leastSim is least for a simulator-running probe; the events and packets per
// operation repeat exactly.
func leastSim(reps int, probe func() simProbe) simProbe {
	best := probe()
	for i := 1; i < reps; i++ {
		best.ns = math.Min(best.ns, probe().ns)
	}
	return best
}

// runProbes fills in every probe metric and every est_s. counts are the
// traced pass's counters.
func runProbes(sz probeSizes, counts map[string]float64, out map[string]float64) {
	var churnAllocs float64
	churn := least(sz.reps, func() float64 {
		ns, allocs := probeSimChurn(sz.ops, sz.heapDepth)
		churnAllocs = allocs
		return ns
	})
	floor := least(sz.reps, func() float64 { ns, _ := probeSimChurn(sz.ops, 1); return ns })
	// sansEvents takes a probe's simulator events out of its unit cost;
	// never negative, whatever the host did to one timing.
	sansEvents := func(ns, events float64) float64 { return math.Max(0, ns-events*floor) }
	out["sim.probe.churn_ns"] = churn
	out["sim.probe.allocs_per_op"] = churnAllocs
	out["sim.probe.timer_stop_ns"] = least(sz.reps, func() float64 { return probeTimerStop(sz.ops, sz.heapDepth) })
	out["sim.est_s"] = counts["sim.events"] * churn / 1e9

	routes := sz.routes
	if routes < 2 {
		routes = 2
	}
	hop := leastSim(sz.reps, func() simProbe { return probeLinkHop(sz.ops) })
	sw := leastSim(sz.reps, func() simProbe { return probeSwitchFwd(sz.ops, routes) })
	fwd := math.Max(0, sw.ns-sw.pkts*hop.ns) // the switch schedules no events of its own
	out["netsim.probe.link_hop_ns"] = hop.ns
	out["netsim.probe.switch_fwd_ns"] = fwd
	out["netsim.probe.lookup_ns"] = least(sz.reps, func() float64 { return probeLookup(sz.ops, routes) })
	routed := counts["netsim.forwarded"] - counts["fancy.ctl_msgs"] // control messages are injected, not looked up
	out["netsim.est_s"] = (counts["netsim.pkts_sent"]*sansEvents(hop.ns, hop.events) + routed*fwd) / 1e9

	tcpSeg := leastSim(sz.reps, func() simProbe { return probeTCPSegment(sz.ops) })
	seg := math.Max(0, tcpSeg.ns-tcpSeg.pkts*hop.ns)
	out["tcp.probe.segment_ns"] = seg
	out["tcp.est_s"] = counts["tcp.segments_sent"] * sansEvents(seg, tcpSeg.events-tcpSeg.pkts*hop.events) / 1e9

	ded, tr, in := math.Inf(1), math.Inf(1), math.Inf(1)
	mar, unmar, wireAllocs := math.Inf(1), math.Inf(1), 0.0
	observe, decode := math.Inf(1), math.Inf(1)
	newModel, check := math.Inf(1), math.Inf(1)
	for i := 0; i < sz.reps; i++ {
		d, t, n := fancyProbes(sz.ops, sz.fancy)
		ded, tr, in = math.Min(ded, d), math.Min(tr, t), math.Min(in, n)
		m, u, a := wireProbes(sz.ops, sz.fancy)
		mar, unmar, wireAllocs = math.Min(mar, m), math.Min(unmar, u), a
		o, dc := hhProbes(sz.ops)
		observe, decode = math.Min(observe, o), math.Min(decode, dc)
		nm, ck := verifyProbes(sz.ops, sz.net, sz.flip)
		newModel, check = math.Min(newModel, nm), math.Min(check, ck)
	}
	out["fancy.probe.egress_dedicated_ns"] = ded
	out["fancy.probe.egress_tree_ns"] = tr
	out["fancy.probe.ingress_tagged_ns"] = in
	share := ratio(counts["fancy.dedicated_pkt_share_num"], counts["fancy.dedicated_pkt_share_den"])
	data := counts["netsim.monitored_pkts"] - counts["fancy.ctl_msgs"]
	out["fancy.est_s"] = data * (share*ded + (1-share)*tr + in) / 1e9

	out["wire.probe.marshal_report_ns"] = mar
	out["wire.probe.unmarshal_report_ns"] = unmar
	out["wire.probe.allocs_per_op"] = wireAllocs
	out["hh.probe.observe_ns"] = observe
	out["hh.probe.decode_report_ns"] = decode
	out["verify.probe.new_model_ns"] = newModel
	out["verify.probe.check_ns"] = check

	report := leastSim(sz.reps, func() simProbe { return probeMgmtReport(sz.ops) })
	out["mgmt.probe.report_ns"] = report.ns
	// A report is two datagrams: itself and its ack.
	out["mgmt.est_s"] = counts["mgmt.dgrams_sent"] / 2 * sansEvents(report.ns, report.events) / 1e9
}
