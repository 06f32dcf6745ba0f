package main

import (
	"fmt"
	"math/rand"

	"fancy/internal/fancy"
	"fancy/internal/fleet"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

// gridParams sizes grid144-full: one simulator over a side×side grid of
// switches with one host each.
type gridParams struct {
	side      int
	flows     int      // UDP flows between random host pairs
	rateBps   float64  // per flow; size by packet rate, not bit rate
	pinned    int      // failed entries with a static dedicated counter
	unpinned  int      // failed entries left to heavy-hitter promotion
	firstFail sim.Time // first injection; the rest follow every failEvery
	failEvery sim.Time
	duration  sim.Time
}

var gridFull = gridParams{side: 12, flows: 300, rateBps: 1e6, pinned: 16, unpinned: 8,
	firstFail: 800 * sim.Millisecond, failEvery: 60 * sim.Millisecond, duration: 3 * sim.Second}

var gridSmoke = gridParams{side: 4, flows: 16, rateBps: 1e6, pinned: 2, unpinned: 1,
	firstFail: sim.Second, failEvery: 100 * sim.Millisecond, duration: 2500 * sim.Millisecond}

func gridName(r, c int) string { return fmt.Sprintf("g%02d-%02d", r, c) }

// gridSpec generates the topology: side×side switches, links to the right and
// lower neighbours with delays drawn from 1–10 ms, one host per switch.
// topo.Build numbers hosts in one address byte, so side may not exceed 15.
func gridSpec(side int, rng *rand.Rand) topo.Spec {
	var spec topo.Spec
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			sw := gridName(r, c)
			spec.Switches = append(spec.Switches, sw)
			spec.Hosts = append(spec.Hosts, topo.HostSpec{Name: hostOf(sw), Attach: sw})
		}
	}
	delay := func() sim.Time { return sim.Millisecond + sim.Time(rng.Int63n(int64(9*sim.Millisecond))) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: gridName(r, c), B: gridName(r, c+1), Delay: delay()})
			}
			if r+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: gridName(r, c), B: gridName(r+1, c), Delay: delay()})
			}
		}
	}
	return spec
}

// runGrid is one pass of grid144-full: the one very large run. Every control
// plane feature is on at once — single-instance correlator over a slightly
// lossy management network, heavy-hitter promotion, the verify gate — and a
// series of gray links fails one after the other.
func runGrid(p *pass, seed int64, gp gridParams) {
	p.beginTrial()
	defer p.endTrial()
	rng := rand.New(rand.NewSource(seed))

	spec := gridSpec(gp.side, rng)
	flows := make([]flow, gp.flows)
	for i := range flows {
		src := rng.Intn(len(spec.Switches))
		dst := rng.Intn(len(spec.Switches) - 1)
		if dst >= src {
			dst++
		}
		flows[i] = flow{entry: netsim.EntryID(i), src: hostOf(spec.Switches[src]),
			dst: hostOf(spec.Switches[dst]), rateBps: gp.rateBps}
	}

	// Failures are chosen from the installed routes, so the fleet — whose
	// configuration names the pinned entries — is built after them.
	var fails []grayLink
	t := buildFleetWith(p, seed, spec, flows, func(n *topo.Network) fleet.Config {
		fails = pickGridFailures(n, flows, gp, rng)
		var pinned []netsim.EntryID
		for _, g := range fails[:gp.pinned] {
			pinned = append(pinned, g.entry)
		}
		return fleet.Config{
			Fancy:  fancy.Config{HighPriority: pinned, Tree: abileneTree, TreeSeed: 3},
			Mgmt:   &mgmt.Config{Loss: 0.02},
			HH:     &fleet.HHFleetConfig{Sketch: hh.Params{Stages: 3, Width: 32}, DynamicSlots: 8},
			Verify: &fleet.VerifyConfig{},
		}
	})
	t.startTraffic(flows, true, gp.duration)
	t.inject(seed, fails)
	t.finish(gp.duration)
	p.add("fancy.dedicated_pkt_share_num", uint64(gp.pinned))
	p.add("fancy.dedicated_pkt_share_den", uint64(gp.flows))
}

// pickGridFailures chooses pinned+unpinned (link, entry) pairs, each on a
// link of the entry's own installed route — the one nearest the middle of
// the path that is still free — with no link and no entry used twice. On the
// grid the direct link is not always the delay-shortest path between its
// ends, so a link is eligible only where it is: that is what
// loopFreeBackup's proof assumes. Pinned entries come first in the result;
// unpinned ones are injected first, because an entry the heavy-hitter stage
// did not promote is found by tree zooming and needs the longer run-up to
// the horizon.
func pickGridFailures(n *topo.Network, flows []flow, gp gridParams, rng *rand.Rand) []grayLink {
	want := gp.pinned + gp.unpinned
	used := make(map[topo.DirectedLink]bool)
	var out []grayLink
	for _, i := range rng.Perm(len(flows)) {
		if len(out) == want {
			break
		}
		fl := flows[i]
		path := routePath(n, n.HostAt(fl.src), fl.entry)
		mid := len(path) / 2
		for k := range path {
			// mid, mid+1, mid-1, mid+2, ...
			at := mid + (k+1)/2
			if k%2 == 0 {
				at = mid - k/2
			}
			if at < 0 || at >= len(path) {
				continue
			}
			if dl := path[at]; !used[dl] && directIsShortest(n, dl) {
				used[dl] = true
				out = append(out, grayLink{dl: dl, entry: fl.entry, src: fl.src})
				break
			}
		}
	}
	if len(out) < want {
		panic(fmt.Sprintf("grid: only %d of %d failures could be placed", len(out), want))
	}
	for i := range out {
		k := (i + gp.unpinned) % want // unpinned (the tail of out) first
		out[i].failAt = gp.firstFail + sim.Time(k)*gp.failEvery
	}
	return out
}
