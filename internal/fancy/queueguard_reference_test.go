package fancy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// refGuard is the guard the fleet used to build once per directed link,
// kept as the reference: it watches one direction and re-arms its own
// sampling event every interval.
type refGuard struct {
	s         *sim.Sim
	threshold int
	interval  sim.Time
	sampleFn  func()
	end       *netsim.LinkEnd
	windows   []guardWindow

	samples     int
	atThreshold int // readings exactly at the threshold, which are not congested
}

func newRefGuard(s *sim.Sim, thresholdBytes int, interval sim.Time, end *netsim.LinkEnd) *refGuard {
	g := &refGuard{s: s, threshold: thresholdBytes, interval: interval, end: end}
	g.sampleFn = g.sample
	s.After(interval, g.sampleFn)
	return g
}

func (g *refGuard) sample() {
	g.samples++
	depth := g.end.QueueDepthBytes()
	if depth == g.threshold {
		g.atThreshold++
	}
	if depth > g.threshold {
		now := g.s.Now()
		w := guardWindow{from: now - g.interval, to: now + g.interval}
		if n := len(g.windows); n > 0 && g.windows[n-1].to >= w.from {
			g.windows[n-1].to = w.to
		} else {
			g.windows = append(g.windows, w)
		}
	}
	g.s.After(g.interval, g.sampleFn)
}

func (g *refGuard) Congested(_ int, from, to sim.Time) bool {
	for i := len(g.windows) - 1; i >= 0; i-- {
		w := g.windows[i]
		if w.to < from {
			return false
		}
		if w.from <= to {
			return true
		}
	}
	return false
}

// guardRun is what one run of guardWorkload leaves to compare.
type guardRun struct {
	guards   []CongestionGuard // one per watched direction, in watch order
	windows  [][]guardWindow
	executed uint64
	created  sim.Time // when the guards were built
	interval sim.Time
	horizon  sim.Time

	ref []*refGuard // the reference run's guards
}

// guardWorkload runs one random workload with either one QueueGuard over
// every watched direction or one refGuard per direction. The network is a
// set of fan-in stars: 1–4 hosts feed a switch whose one egress link, at a
// tenth to a hundredth of the hosts' rate, leads to a sink. The first 1–60
// link directions are watched. Hosts send background traffic with gaps
// shorter than their links' delay, so most sends are lone packets on a
// busy lane (netsim's fold), and some sends land a few microseconds before
// a sample instant, so a sample reads the depth while the lone packet's
// drain slot is pending. Bursts overflow the threshold; some land exactly
// at a sample instant, queued before the guards and after them. Packet
// sizes and the threshold are multiples of 500 bytes, so some readings
// equal the threshold. Some directions carry a Failure or a Chaos.
//
// The guards are built at a random t > 0 the way fleet.New builds them:
// direction by direction, each may first queue a self-re-arming burst on
// its own direction for one interval later (a monitor's first session);
// the reference builds each direction's guard right after that, the
// QueueGuard is built after the loop.
func guardWorkload(seed int64, reference bool) guardRun {
	const us = sim.Microsecond
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(seed)
	sizes := []int{500, 1000, 1500}
	pkt := func() *netsim.Packet {
		return &netsim.Packet{Proto: netsim.ProtoUDP, Entry: netsim.EntryID(rng.Intn(4)), Size: sizes[rng.Intn(len(sizes))]}
	}

	run := guardRun{
		interval: sim.Time(1+rng.Intn(3)) * sim.Millisecond,
		created:  1 + sim.Time(rng.Int63n(int64(20*sim.Millisecond))),
	}
	rounds := 10 + rng.Intn(20)
	run.horizon = run.created + sim.Time(rounds)*run.interval
	threshold := 500 * (1 + rng.Intn(30))
	watched := 1 + rng.Intn(60)
	sampleAt := func(k int) sim.Time { return run.created + sim.Time(k)*run.interval }

	var dirs []*netsim.LinkEnd
	var hosts []*netsim.Host
	for g := 0; len(dirs) < watched; g++ {
		fan := 1 + rng.Intn(4)
		sw := netsim.NewSwitch(s, fmt.Sprint("sw", g), fan+1)
		sw.Routes.Insert(0, 0, netsim.Route{Port: fan, Backup: -1})
		sink := netsim.NewHost(s, fmt.Sprint("sink", g))
		hostRate := 1e9
		egress := netsim.Connect(s, sw, fan, sink, 0, netsim.LinkConfig{
			Delay:      sim.Time(1+rng.Intn(500)) * us,
			RateBps:    hostRate / float64(10+rng.Intn(90)),
			QueueBytes: 500 * (20 + rng.Intn(100)),
		})
		var links []*netsim.Link
		for i := 0; i < fan; i++ {
			h := netsim.NewHost(s, fmt.Sprintf("h%d.%d", g, i))
			links = append(links, netsim.Connect(s, h, 0, sw, i, netsim.LinkConfig{
				Delay:   sim.Time(100+rng.Intn(400)) * us,
				RateBps: hostRate,
			}))
			hosts = append(hosts, h)
		}
		links = append(links, egress)
		for _, l := range links {
			for _, end := range []*netsim.LinkEnd{l.AB, l.BA} {
				switch rng.Intn(5) {
				case 0:
					end.SetFailure(netsim.FailUniform(s.DeriveSeed(fmt.Sprint("fail", len(dirs))), 0, 0.2))
				case 1:
					c := netsim.NewChaos(s, fmt.Sprint("dir", len(dirs)))
					c.Reorder, c.JitterMax = 0.1, 50*us
					c.Duplicate, c.DupDelayMax = 0.05, 20*us
					if rng.Intn(2) == 0 {
						c.DownFor, c.UpFor = 3*sim.Millisecond, 7*sim.Millisecond
					}
					end.SetChaos(c)
				}
				dirs = append(dirs, end)
			}
		}
	}
	dirs = dirs[:watched]

	burst := func(send func(*netsim.Packet) bool, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				send(pkt())
			}
		}
	}
	for _, h := range hosts {
		// Background: gaps of 20–100 µs, shorter than every host link's
		// delay, until the horizon.
		var tick func()
		tick = func() {
			if s.Now() >= run.horizon {
				return
			}
			h.Send(pkt())
			s.After(sim.Time(20+rng.Intn(80))*us, tick)
		}
		s.At(sim.Time(rng.Intn(100))*us, tick)
		for i := rng.Intn(4); i > 0; i-- {
			k := 1 + rng.Intn(rounds)
			s.At(sampleAt(k)-sim.Time(1+rng.Intn(7))*us, burst(h.Send, 1))
			s.At(sampleAt(k), burst(h.Send, 1+rng.Intn(60)))
		}
		for i := rng.Intn(3); i > 0; i-- {
			at := run.created + sim.Time(rng.Int63n(int64(run.horizon-run.created)))
			s.At(at, burst(h.Send, 1+rng.Intn(80)))
		}
	}

	s.At(run.created, func() {
		for _, end := range dirs {
			if rng.Intn(4) == 0 {
				// A burst into this direction one interval out that re-arms
				// itself a few times, queued before this direction's guard.
				n, left := 1+rng.Intn(30), rng.Intn(4)
				var again func()
				again = func() {
					burst(end.Send, n)()
					if left > 0 {
						left--
						s.After(run.interval, again)
					}
				}
				s.After(run.interval, again)
			}
			if reference {
				g := newRefGuard(s, threshold, run.interval, end)
				run.ref = append(run.ref, g)
				run.guards = append(run.guards, g)
			}
		}
		if !reference {
			g := NewQueueGuard(s, threshold, run.interval)
			for _, end := range dirs {
				run.guards = append(run.guards, g.Watch(end))
			}
		}
		// Bursts at sample instants, queued after the guards.
		for i := rng.Intn(4); i > 0; i-- {
			h := hosts[rng.Intn(len(hosts))]
			s.At(sampleAt(1+rng.Intn(rounds)), burst(h.Send, 1+rng.Intn(60)))
		}
	})
	s.Run(run.horizon)
	run.executed = s.Executed
	for _, g := range run.guards {
		switch g := g.(type) {
		case *refGuard:
			run.windows = append(run.windows, g.windows)
		case *QueueWatch:
			run.windows = append(run.windows, g.windows)
		}
	}
	return run
}

// TestQueueGuardMatchesPerDirectionReference: one QueueGuard sampling every
// watched direction in one event per interval records, direction for
// direction, exactly the windows that one self-re-arming guard per
// direction records, answers every Congested query the same, and runs
// N−1 fewer events per round.
func TestQueueGuardMatchesPerDirectionReference(t *testing.T) {
	var congested, clean, mixed, atThreshold int
	for seed := int64(1); seed <= 30; seed++ {
		got, want := guardWorkload(seed, false), guardWorkload(seed, true)
		n := len(want.ref)
		if len(got.guards) != n {
			t.Fatalf("seed %d: %d watched directions, reference has %d", seed, len(got.guards), n)
		}
		rounds := want.ref[0].samples
		if wantRounds := int((want.horizon - want.created) / want.interval); rounds != wantRounds {
			t.Fatalf("seed %d: reference sampled %d rounds, want %d", seed, rounds, wantRounds)
		}
		seedCongested, seedClean := false, false
		for k, ref := range want.ref {
			if ref.samples != rounds {
				t.Fatalf("seed %d: reference guard %d sampled %d rounds, guard 0 %d", seed, k, ref.samples, rounds)
			}
			if !slices.Equal(got.windows[k], want.windows[k]) {
				t.Fatalf("seed %d, direction %d of %d: windows %v, reference %v", seed, k, n, got.windows[k], want.windows[k])
			}
			if len(want.windows[k]) > 0 {
				seedCongested = true
				congested++
			} else {
				seedClean = true
				clean++
			}
			atThreshold += ref.atThreshold
			step := want.interval / 3
			for from := -want.interval; from <= want.horizon+want.interval; from += step {
				for _, span := range []sim.Time{0, 1, want.interval / 2, 3 * want.interval} {
					if g, w := got.guards[k].Congested(0, from, from+span), ref.Congested(0, from, from+span); g != w {
						t.Fatalf("seed %d, direction %d: Congested(%v, %v) = %v, reference %v", seed, k, from, from+span, g, w)
					}
				}
			}
		}
		if seedCongested && seedClean {
			mixed++
		}
		if saved := want.executed - got.executed; saved != uint64((n-1)*rounds) {
			t.Fatalf("seed %d: %d events saved, want (%d-1)×%d rounds = %d", seed, saved, n, rounds, (n-1)*rounds)
		}
	}
	if congested == 0 || clean == 0 || mixed == 0 || atThreshold == 0 {
		t.Fatalf("the workload missed a case: %d congested and %d clean directions, %d seeds with both, %d readings at the threshold",
			congested, clean, mixed, atThreshold)
	}
}

func TestNewQueueGuardPanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		interval  sim.Time
	}{
		{"zero interval", 1000, 0},
		{"negative interval", 1000, -5 * sim.Millisecond},
		{"negative threshold", -1, 5 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewQueueGuard(threshold %d, interval %v) did not panic", tc.threshold, tc.interval)
				}
			}()
			NewQueueGuard(sim.New(1), tc.threshold, tc.interval)
		})
	}
}
