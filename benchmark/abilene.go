package main

import (
	"math/rand"
	"sort"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/traffic"
)

// abileneParams sizes the two Abilene workloads. Both run one trial per
// (directed link, repetition): a fresh 11-PoP fleet, one host per PoP, a
// 2 Mbps probe entry black-holed on the target link shortly after t=1 s.
type abileneParams struct {
	reps     int      // trials per directed link
	links    int      // directed links targeted (28 = all)
	duration sim.Time // simulated horizon per trial

	// Data-path load (abilene-mesh-udp): background entries with Zipf(1.0)
	// shares of aggregateBps between random PoP pairs, from pooled sources.
	background   int
	aggregateBps float64

	// Control-plane load (abilene-ctrl-chaos): a lossy management network,
	// a replicated correlator whose leader is killed across the first
	// evidence window, and the verified-commit gate.
	chaos bool
}

var (
	meshFull   = abileneParams{reps: 2, links: 28, duration: 2500 * sim.Millisecond, background: 64, aggregateBps: 120e6}
	meshSmoke  = abileneParams{reps: 1, links: 3, duration: 1500 * sim.Millisecond, background: 8, aggregateBps: 8e6}
	chaosFull  = abileneParams{reps: 8, links: 28, duration: 3 * sim.Second, chaos: true}
	chaosSmoke = abileneParams{reps: 1, links: 3, duration: 3 * sim.Second, chaos: true}
)

const (
	// The failure starts at a seeded instant in [abileneFailAt,
	// abileneFailAt+abileneFailJitter): two dedicated counting sessions, so
	// the time to localize averages over the session phase instead of
	// sampling one phase 28 times.
	abileneFailAt     = sim.Second
	abileneFailJitter = 100 * sim.Millisecond
	abileneProbe      = netsim.EntryID(1000)
	abileneProbeBw    = 2e6
)

var abileneTree = tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true}

func abileneSpec() topo.Spec {
	spec := topo.Abilene()
	for _, sw := range spec.Switches {
		spec.Hosts = append(spec.Hosts, topo.HostSpec{Name: hostOf(sw), Attach: sw})
	}
	return spec
}

func abileneLinks() []topo.DirectedLink {
	var out []topo.DirectedLink
	for _, l := range topo.Abilene().Links {
		out = append(out, topo.DirectedLink{From: l.A, To: l.B}, topo.DirectedLink{From: l.B, To: l.A})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// runAbilene is one pass of abilene-mesh-udp or abilene-ctrl-chaos.
func runAbilene(p *pass, seed int64, ap abileneParams) {
	rng := rand.New(rand.NewSource(seed))
	targets := abileneLinks()
	if ap.links < len(targets) {
		// A spread of coast, core and east-coast links.
		step := len(targets) / ap.links
		var sub []topo.DirectedLink
		for i := 0; i < ap.links; i++ {
			sub = append(sub, targets[i*step])
		}
		targets = sub
	}
	for rep := 0; rep < ap.reps; rep++ {
		for _, dl := range targets {
			abileneTrial(p, rng.Int63(), dl, ap)
		}
	}
}

func abileneTrial(p *pass, seed int64, dl topo.DirectedLink, ap abileneParams) {
	p.beginTrial()
	defer p.endTrial()
	rng := rand.New(rand.NewSource(seed))

	spec := abileneSpec()
	flows := []flow{{entry: abileneProbe, src: hostOf(dl.From), dst: hostOf(dl.To), rateBps: abileneProbeBw}}
	shares := traffic.ZipfShares(ap.background, 1.0)
	for e := 0; e < ap.background; e++ {
		src := rng.Intn(len(spec.Switches))
		dst := rng.Intn(len(spec.Switches) - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, flow{entry: netsim.EntryID(e),
			src: hostOf(spec.Switches[src]), dst: hostOf(spec.Switches[dst]),
			rateBps: ap.aggregateBps * shares[e]})
	}

	cfg := fleet.Config{Fancy: fancy.Config{
		HighPriority: []netsim.EntryID{abileneProbe},
		Tree:         abileneTree,
		TreeSeed:     3,
	}}
	if ap.chaos {
		cfg.Mgmt = &mgmt.Config{Loss: 0.02, Duplicate: 0.01, Jitter: sim.Millisecond}
		cfg.Replicas = 3
		cfg.Verify = &fleet.VerifyConfig{}
	}
	t := buildFleet(p, seed, spec, flows, cfg)
	t.startTraffic(flows, !ap.chaos, ap.duration)
	failAt := abileneFailAt + sim.Time(rng.Int63n(int64(abileneFailJitter)))
	t.inject(seed, []grayLink{{dl: dl, entry: abileneProbe, src: hostOf(dl.From), failAt: failAt}})
	if ap.chaos {
		// Kill the leader across the first evidence window; recovery is a
		// phi-driven election and a replicated-log restore. The dead
		// replica rejoins as a follower.
		killed := -1
		t.s.ScheduleAt(failAt+100*sim.Millisecond, func() { killed = t.f.KillLeader() })
		t.s.ScheduleAt(failAt+400*sim.Millisecond, func() { t.f.RestartReplica(killed) })
	}
	t.finish(ap.duration)
	p.add("fancy.dedicated_pkt_share_num", uint64(abileneProbeBw))
	p.add("fancy.dedicated_pkt_share_den", uint64(abileneProbeBw+ap.aggregateBps))
}
