package main

import (
	"fmt"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// linkParams sizes link-trace-tcp.
type linkParams struct {
	traceScale float64  // divisor applied to the CAIDA-like trace's rates
	duration   sim.Time // simulated horizon
	dedicated  int      // dedicated counters (historical top ranks)
	failDed    int      // failed prefixes among the dedicated ranks
	failTree   int      // failed prefixes among the tree-covered head
}

var linkFull = linkParams{traceScale: 10, duration: 12 * sim.Second,
	dedicated: 500, failDed: 92, failTree: 8}

var linkSmoke = linkParams{traceScale: 100, duration: 6 * sim.Second,
	dedicated: 100, failDed: 6, failTree: 1}

const (
	linkFailAt   = 2 * sim.Second
	linkLossRate = 0.5
)

var linkTree = tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true}

// runLinkTraceTCP is one pass of link-trace-tcp: the paper's Table-3 shape.
// One simulator, one monitored 10 ms link between two switches, a
// synthesized CAIDA-like trace replayed as closed-loop TCP, and a batch of
// prefixes that start losing half their packets at t=2 s.
func runLinkTraceTCP(p *pass, seed int64, lp linkParams) {
	p.beginTrial()
	defer p.endTrial()

	var tr *traffic.Trace
	p.call(bSynthesize, func() {
		cfg := traffic.StandardTraces(lp.traceScale)[0]
		cfg.Seed = seed
		cfg.Duration = lp.duration
		tr = traffic.Synthesize(cfg)
	})

	s := sim.New(seed)
	var (
		src, dst *netsim.Host
		up, down *netsim.Switch
		links    [3]*netsim.Link
	)
	p.call(bNetBuild, func() {
		src = netsim.NewHost(s, "src")
		dst = netsim.NewHost(s, "dst")
		up = netsim.NewSwitch(s, "up", 2)
		down = netsim.NewSwitch(s, "down", 2)
		edge := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 24}
		core := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 24}
		links[0] = netsim.Connect(s, src, 0, up, 0, edge)
		links[1] = netsim.Connect(s, up, 1, down, 0, core)
		links[2] = netsim.Connect(s, down, 1, dst, 0, edge)
		for _, sw := range []*netsim.Switch{up, down} {
			mustRoute(sw.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1}))
			mustRoute(sw.Routes.Insert(netsim.IPv4(172, 16, 0, 0), 16, netsim.Route{Port: 0, Backup: -1}))
		}
		src.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
		dst.Default = netsim.PacketHandlerFunc(func(*netsim.Packet) {})
	})

	dedicated := make([]netsim.EntryID, lp.dedicated)
	for i := range dedicated {
		dedicated[i] = netsim.EntryID(i) // historical top-N by construction
	}
	cfg := fancy.Config{HighPriority: dedicated, Tree: linkTree, TreeSeed: 17}
	var det, downDet *fancy.Detector
	p.call(bDetectorNew, func() {
		var err error
		if det, err = fancy.NewDetector(s, up, cfg); err != nil {
			panic(fmt.Sprintf("link-trace-tcp: upstream detector: %v", err))
		}
		if downDet, err = fancy.NewDetector(s, down, cfg); err != nil {
			panic(fmt.Sprintf("link-trace-tcp: downstream detector: %v", err))
		}
		downDet.ListenPort(0)
		det.MonitorPort(1)
	})

	failed := pickLinkFailures(tr, lp)
	slot := make(map[netsim.EntryID]int, len(failed)) // failed entry → index in ops
	byPath := make(map[string][]netsim.EntryID)       // tree path → failed entries under it
	base := len(p.ops)
	for i, e := range failed {
		slot[e] = base + i
		p.ops = append(p.ops, op{name: fmt.Sprintf("prefix-%d", e), crosses: true})
		if _, ded := det.DedicatedSlot(e); !ded {
			k := pathKey(det.EntryPath(1, e))
			byPath[k] = append(byPath[k], e)
		}
	}
	detect := func(e netsim.EntryID) {
		o := &p.ops[slot[e]]
		if !o.exact {
			o.exact, o.ttl = true, s.Now()-linkFailAt
		}
	}
	events := 0
	det.OnEvent = func(ev fancy.Event) {
		events++
		switch ev.Kind {
		case fancy.EventDedicated:
			if _, ok := slot[ev.Entry]; ok && s.Now() >= linkFailAt {
				detect(ev.Entry)
			} else {
				p.falseVerdicts++ // a healthy entry flagged
			}
		case fancy.EventTreeLeaf:
			under := byPath[pathKey(ev.Path)]
			if len(under) == 0 || s.Now() < linkFailAt {
				p.falseVerdicts++ // a leaf no failed prefix hashes to
			}
			for _, e := range under {
				detect(e)
			}
		case fancy.EventUniform:
			p.falseVerdicts++ // the failure is per-entry, not link-wide
		}
	}

	var drv *traffic.Driver
	p.call(bTrafficStart, func() {
		drv = traffic.NewDriver(s, src, dst, tcp.Config{})
		drv.Schedule(tr.Specs)
	})
	links[1].AB.SetFailure(netsim.FailEntries(seed+2, linkFailAt, linkLossRate, failed...))

	var ends []*netsim.LinkEnd
	for _, l := range links {
		ends = append(ends, l.AB, l.BA)
	}
	p.run(s, ends, lp.duration)

	// Counters, read after the run.
	for _, e := range ends {
		p.addLinkStats(e.Stats())
	}
	p.peak("netsim.routes_max", uint64(up.Routes.Len()))
	p.peak("netsim.routes_max", uint64(down.Routes.Len()))
	p.add("netsim.monitored_pkts", links[1].AB.Stats().Sent+links[1].BA.Stats().Sent)
	p.add("traffic.flows", uint64(len(tr.Specs)))
	p.add("tcp.flows_started", drv.Started())
	p.add("tcp.flows_completed", uint64(drv.Completed()))
	for _, snd := range drv.Senders {
		p.add("tcp.segments_sent", snd.Stats.SegmentsSent)
		p.add("tcp.retransmits", snd.Stats.Retransmits)
		p.add("tcp.timeouts", snd.Stats.Timeouts)
	}
	p.add("fancy.sessions", det.SessionsCompleted(1))
	p.add("fancy.detector_events", uint64(events))
	for _, d := range []*fancy.Detector{det, downDet} {
		p.addDetector(d)
	}
	total, ded := traceBytes(tr, lp.dedicated)
	p.add("fancy.dedicated_pkt_share_num", ded)
	p.add("fancy.dedicated_pkt_share_den", total)
	p.add("netsim.forwarded", up.Forwarded+down.Forwarded)
	p.probeFancy = cfg
}

// pickLinkFailures chooses the prefixes to fail: the failDed heaviest
// prefixes of the slice that have a dedicated counter and the failTree
// heaviest that have none. Taking the head of the slice means every failed
// prefix carries traffic when the failure starts, so its time to detect
// measures the counting protocol and not a gap in the trace, and none is
// left undetected at the horizon.
func pickLinkFailures(tr *traffic.Trace, lp linkParams) []netsim.EntryID {
	var ded, treeCovered []netsim.EntryID
	for _, e := range tr.SliceTop(len(tr.SliceShare)) {
		switch {
		case int(e) < lp.dedicated && len(ded) < lp.failDed:
			ded = append(ded, e)
		case int(e) >= lp.dedicated && len(treeCovered) < lp.failTree:
			treeCovered = append(treeCovered, e)
		}
	}
	return append(ded, treeCovered...)
}

// traceBytes sums the trace's bytes: of all prefixes, and of those with a
// dedicated counter.
func traceBytes(tr *traffic.Trace, dedicated int) (total, ded uint64) {
	for _, f := range tr.Specs {
		total += uint64(f.Bytes)
		if int(f.Entry) < dedicated {
			ded += uint64(f.Bytes)
		}
	}
	return total, ded
}

func mustRoute(_ *netsim.Route, err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: route insert: %v", err))
	}
}

func pathKey(path []uint16) string {
	b := make([]byte, 2*len(path))
	for i, v := range path {
		b[2*i], b[2*i+1] = byte(v>>8), byte(v)
	}
	return string(b)
}
