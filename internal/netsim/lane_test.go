package netsim

import (
	"testing"

	"fancy/internal/sim"
)

// TestSerializationExactTimes pins the integer serialization arithmetic to
// exact values for the rates EXPERIMENTS.md uses. The rule is documented on
// direction.serialization: ns = ceil(bits * 1e9 / rate) — a packet never
// finishes serialization early, and equal inputs give bit-identical times
// on every platform (the old float64 math could drift at high rates).
func TestSerializationExactTimes(t *testing.T) {
	cases := []struct {
		rateBps int64
		size    int
		want    sim.Time
	}{
		// 2 Mbps × 1000 B (the fleet sweep's UDP source): exactly 4 ms.
		{2e6, 1000, 4 * sim.Millisecond},
		// 1 Mbps × 1250 B: exactly 10 ms (the classic test fixture).
		{1e6, 1250, 10 * sim.Millisecond},
		// 10 Gbps × 1500 B: 12000 bits / 10^10 bps = 1.2 µs exactly.
		{10e9, 1500, 1200 * sim.Nanosecond},
		// 100 Gbps × 64 B: 512 bits / 10^11 bps = 5.12 ns → rounds UP to 6.
		{100e9, 64, 6 * sim.Nanosecond},
		// 3 Mbps × 1000 B: 8000/3 µs = 2666.66… µs → rounds UP.
		{3e6, 1000, sim.Time(2666667)},
		// Zero rate means an infinitely fast link.
		{0, 1500, 0},
	}
	for _, c := range cases {
		d := &direction{rateBps: c.rateBps}
		if got := d.serialization(c.size); got != c.want {
			t.Errorf("serialization(%d B @ %d bps) = %v, want %v",
				c.size, c.rateBps, got, c.want)
		}
	}
}

// TestLaneEgressHookTiming verifies the per-link lane preserves the egress
// hook contract: the hook fires when a packet begins serialization — at
// send time for an idle serializer, at the previous packet's serialization
// end for a queued one.
func TestLaneEgressHookTiming(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6})
	var hookAt []sim.Time
	var hookID []uint64
	a.tx.dir.egressHook = func(pkt *Packet) {
		hookAt = append(hookAt, s.Now())
		hookID = append(hookID, pkt.ID)
	}
	// 1250 B @ 1 Mbps = 10 ms serialization each.
	a.tx.Send(&Packet{Size: 1250, ID: 1}) // serializes 0–10 ms
	a.tx.Send(&Packet{Size: 1250, ID: 2}) // serializes 10–20 ms
	s.Run(0)
	if len(hookAt) != 2 {
		t.Fatalf("egress hook fired %d times, want 2", len(hookAt))
	}
	if hookID[0] != 1 || hookAt[0] != 0 {
		t.Errorf("first egress: id=%d at %v, want id=1 at 0", hookID[0], hookAt[0])
	}
	if hookID[1] != 2 || hookAt[1] != 10*sim.Millisecond {
		t.Errorf("second egress: id=%d at %v, want id=2 at 10ms", hookID[1], hookAt[1])
	}
	if len(b.got) != 2 || b.at[0] != 11*sim.Millisecond || b.at[1] != 21*sim.Millisecond {
		t.Errorf("deliveries %v, want [11ms 21ms]", b.at)
	}
}

// TestLinkSteadyStateDoesNotAllocate pins the hot path: a
// send→serialize→propagate→deliver→recycle cycle on a warmed link performs
// no heap allocations.
func TestLinkSteadyStateDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := NewHost(s, "b") // no handler: delivered packets die here
	Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	pool := NewPacketPool()
	// Warm the lane, the event pool, and the packet pool.
	cycle := func() {
		pkt := pool.Get()
		pkt.Proto = ProtoUDP
		pkt.Size = 1000
		a.tx.Send(pkt)
		s.Run(0)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state link cycle allocates %.1f objects, want 0", avg)
	}
	if pool.Reuses == 0 {
		t.Error("pool never recycled a packet")
	}
}
