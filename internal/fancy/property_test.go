package fancy

// Protocol-level property tests: invariants that must hold across random
// traffic patterns, loss configurations and seeds.

import (
	"math/rand"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// TestPropertyNoFalsePositivesLossless: whatever the traffic pattern, a
// lossless link never raises any detection event. This is FANcY's central
// soundness claim (FPR = 0 for dedicated counters; tree FPs only from
// hash collisions WITH a real failure present).
func TestPropertyNoFalsePositivesLossless(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := Config{
			HighPriority: []netsim.EntryID{10, 11, 12},
			Tree:         tree.Params{Width: 16, Depth: 3, Split: 2, Pipelined: true},
			TreeSeed:     uint64(seed),
		}
		tb := newTestbed(t, cfg, 100+seed)
		rng := rand.New(rand.NewSource(seed))
		// Random bursty traffic over random entries, including dedicated.
		for i := 0; i < 12; i++ {
			entry := netsim.EntryID(rng.Intn(40))
			rate := float64(rng.Intn(40)+1) * 100e3
			start := sim.Time(rng.Intn(1000)) * sim.Millisecond
			stop := start + sim.Time(rng.Intn(3000)+200)*sim.Millisecond
			tb.udpWindow(entry, rate, start, stop)
		}
		tb.s.Run(5 * sim.Second)
		for _, kind := range []EventKind{EventDedicated, EventTreeLeaf, EventUniform, EventLinkDown} {
			if n := tb.countEvents(kind); n != 0 {
				t.Errorf("seed %d: %v raised %d times on a lossless link", seed, kind, n)
			}
		}
		if tb.out.Flags.Count() != 0 || tb.out.Bloom.inserted != 0 {
			t.Errorf("seed %d: outputs populated without loss", seed)
		}
	}
}

// TestPropertyConservation: with a blackhole on one entry and random
// background traffic, the detector flags the failed entry and only the
// failed entry (modulo tree hash collisions, which we avoid by checking
// the dedicated set and distinct tree paths).
func TestPropertyOnlyFailedEntryFlagged(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := Config{
			HighPriority: []netsim.EntryID{10, 11, 12},
			Tree:         tree.Params{Width: 64, Depth: 3, Split: 2, Pipelined: true},
			TreeSeed:     uint64(seed) + 77,
		}
		tb := newTestbed(t, cfg, 200+seed)
		rng := rand.New(rand.NewSource(seed + 50))

		entries := []netsim.EntryID{10, 11, 12, 100, 101, 102, 103}
		for _, e := range entries {
			tb.udp(e, float64(rng.Intn(20)+5)*100e3, 0, 8*sim.Second)
		}
		victim := entries[rng.Intn(len(entries))]
		tb.failEntries(1*sim.Second, 1.0, victim)
		tb.s.Run(8 * sim.Second)

		if !tb.det.Flagged(1, victim) {
			t.Errorf("seed %d: victim %d not flagged", seed, victim)
		}
		victimPath := pathKeyTest(tb.det.EntryPath(1, victim))
		for _, e := range entries {
			if e == victim {
				continue
			}
			if pathKeyTest(tb.det.EntryPath(1, e)) == victimPath {
				continue // genuine hash collision: a Bloom FP is expected
			}
			if tb.det.Flagged(1, e) {
				t.Errorf("seed %d: healthy entry %d flagged (victim %d)", seed, e, victim)
			}
		}
	}
}

// TestPropertyDetectionUnderRandomProtocolLoss: random loss on control
// messages in both directions cannot stop the stop-and-wait protocol from
// eventually detecting a blackhole.
func TestPropertyDetectionUnderRandomProtocolLoss(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tb := newTestbed(t, testCfg, 300+seed)
		tb.udp(10, 2e6, 0, 12*sim.Second)
		rng := rand.New(rand.NewSource(seed))
		rev := float64(rng.Intn(40)) / 100 // up to 40% reverse loss
		tb.link.BA.SetFailure(netsim.FailUniform(seed+9, 0, rev))
		// 70% loss on data and control messages alike: entry 10 is the only
		// traffic (a total control blackhole would correctly surface as
		// EventLinkDown instead).
		tb.link.AB.SetFailure(netsim.FailUniform(tb.s.DeriveSeed("testbed/fail"), 1*sim.Second, 0.7))
		tb.s.Run(12 * sim.Second)
		if _, ok := tb.firstEvent(EventDedicated); !ok {
			t.Errorf("seed %d (rev=%.2f): failure never detected", seed, rev)
		}
	}
}

// TestPropertySessionMonotonic: sessions complete continuously and the
// output structures never shrink.
func TestPropertySessionMonotonic(t *testing.T) {
	tb := newTestbed(t, testCfg, 400)
	tb.udp(10, 1e6, 0, 3*sim.Second)
	tb.failEntries(1*sim.Second, 0.3, 10)

	var lastSessions uint64
	var lastFlags int
	for step := sim.Time(0); step < 3*sim.Second; step += 200 * sim.Millisecond {
		tb.s.Run(step + 200*sim.Millisecond)
		s := tb.det.SessionsCompleted(1)
		if s < lastSessions {
			t.Fatalf("sessions went backwards: %d → %d", lastSessions, s)
		}
		lastSessions = s
		fl := tb.out.Flags.Count()
		if fl < lastFlags {
			t.Fatalf("flag count shrank: %d → %d", lastFlags, fl)
		}
		lastFlags = fl
	}
	if lastSessions == 0 {
		t.Fatal("no sessions completed")
	}
}

// udpWindow is like udp but with an explicit start.
func (tb *testbed) udpWindow(entry netsim.EntryID, rateBps float64, start, stop sim.Time) {
	const size = 1000
	gap := sim.Time(float64(size*8) / rateBps * float64(sim.Second))
	if gap <= 0 {
		gap = sim.Microsecond
	}
	var tick func()
	tick = func() {
		if tb.s.Now() >= stop {
			return
		}
		tb.src.Send(&netsim.Packet{
			Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Src: netsim.IPv4(172, 16, 0, 1), Proto: netsim.ProtoUDP, Size: size,
		})
		tb.s.After(gap, tick)
	}
	tb.s.ScheduleAt(start, tick)
}

func pathKeyTest(p []uint16) string {
	b := make([]byte, 2*len(p))
	for i, v := range p {
		b[2*i] = byte(v >> 8)
		b[2*i+1] = byte(v)
	}
	return string(b)
}
