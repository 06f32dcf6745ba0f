package netsim

import (
	"slices"
	"testing"

	"fancy/internal/sim"
)

// The packet-lifecycle contract (see PacketPool): every pool-issued packet
// — whatever its protocol — goes back to the pool that issued it at the
// place where it dies; literals, clones and captured packets never do.

// TestLifecycleEveryProtoIsReused: the old pool refused TCP and FANcY
// control packets by rule. Now all three protocols are recycled, and a
// reused control packet keeps its Ctl capacity and none of its bytes.
func TestLifecycleEveryProtoIsReused(t *testing.T) {
	for _, proto := range []Proto{ProtoUDP, ProtoTCP, ProtoFancy} {
		p := NewPacketPool()
		pkt := p.Get()
		pkt.Proto, pkt.Flow, pkt.Tagged, pkt.SentAt = proto, 7, true, 42
		pkt.Ctl = append(pkt.Ctl, 1, 2, 3, 4, 5, 6, 7, 8)
		pkt.laneAt, pkt.laneEgressed = 9, true
		pkt.release()

		got := p.Get()
		if got != pkt || p.Reuses != 1 {
			t.Fatalf("proto %d: packet not reused (Reuses = %d)", proto, p.Reuses)
		}
		if got.Flow != 0 || got.Tagged || got.SentAt != 0 || got.laneAt != 0 || got.laneEgressed {
			t.Errorf("proto %d: reused packet kept stale state: %+v", proto, got)
		}
		if len(got.Ctl) != 0 || cap(got.Ctl) < 8 {
			t.Errorf("proto %d: reused Ctl has len %d cap %d, want len 0 cap >= 8",
				proto, len(got.Ctl), cap(got.Ctl))
		}
		if got.home != p {
			t.Errorf("proto %d: reused packet lost its way home", proto)
		}
	}
}

// TestLifecycleDoubleReleaseIsNoOp: a second release must not enter the
// packet into the free list twice, or two Gets would alias one packet.
func TestLifecycleDoubleReleaseIsNoOp(t *testing.T) {
	p := NewPacketPool()
	pkt := p.Get()
	pkt.release()
	pkt.release()
	a, b := p.Get(), p.Get()
	if a != pkt {
		t.Fatal("first Get after release did not reuse the packet")
	}
	if b == a {
		t.Fatal("double release duplicated the packet in the free list")
	}
	if p.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1 (one real release, one ignored)", p.Reuses)
	}
}

// TestLifecycleLiteralAndCloneNeverRecycled: a literal has no home, and a
// chaos duplicate must not inherit the original's — nor its lane linkage,
// nor its Ctl backing array.
func TestLifecycleLiteralAndCloneNeverRecycled(t *testing.T) {
	p := NewPacketPool()
	lit := &Packet{Proto: ProtoUDP}
	lit.release()

	orig := p.Get()
	orig.Proto = ProtoFancy
	orig.Ctl = append(orig.Ctl, 0xAA, 0xBB)
	orig.laneAt, orig.laneEgressed, orig.laneNext = 5, true, &Packet{ID: 2}
	c := orig.clone()
	if c.laneNext != nil || c.laneAt != 0 || c.laneEgressed || c.home != nil {
		t.Errorf("clone kept lane/pool state: %+v", c)
	}
	c.Ctl[0] = 0
	if orig.Ctl[0] != 0xAA {
		t.Error("clone shares the original's Ctl buffer")
	}
	c.release()

	if len(p.free) != 0 {
		t.Fatalf("free list holds %d packets after releasing a literal and a clone, want 0", len(p.free))
	}
}

// TestLifecycleLinkDropsRelease: the link's three terminal drops —
// failure, chaos and congestion — each return the packet to its pool.
func TestLifecycleLinkDropsRelease(t *testing.T) {
	cases := []struct {
		name  string
		size  int // the queue holds 150 bytes
		setup func(s *sim.Sim, l *Link)
		count func(l *Link) uint64
	}{
		{"failure", 100, func(_ *sim.Sim, l *Link) { l.AB.SetFailure(FailEntries(1, 0, 1.0, 9)) },
			func(l *Link) uint64 { return l.AB.Stats().FailureDrops }},
		{"chaos", 100, func(s *sim.Sim, l *Link) {
			c := NewChaos(s, "x")
			c.CorruptData = 1
			l.AB.SetChaos(c)
		}, func(l *Link) uint64 { return l.AB.dir.chaos.Stats.CorruptedData }},
		{"congestion", 200, func(*sim.Sim, *Link) {},
			func(l *Link) uint64 { return l.AB.Stats().CongestionDrops }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			a, b := &sinkNode{name: "a", s: s}, &sinkNode{name: "b", s: s}
			l := Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6, QueueBytes: 150})
			tc.setup(s, l)
			p := NewPacketPool()
			pkt := p.Get()
			pkt.Proto, pkt.Entry, pkt.Size = ProtoUDP, 9, tc.size
			if sent := a.tx.Send(pkt); sent != (tc.size <= 150) {
				t.Fatalf("Send reported %v for a %d-byte packet", sent, tc.size)
			}
			s.Run(0)
			if tc.count(l) != 1 || len(b.got) != 0 {
				t.Fatalf("the %s drop did not happen", tc.name)
			}
			if len(p.free) != 1 || p.free[0] != pkt {
				t.Fatalf("%s drop did not release the packet", tc.name)
			}
		})
	}
}

// consumeHook is an ingress hook that consumes every packet.
type consumeHook struct{}

func (consumeHook) OnIngress(*Packet, int) bool { return true }

// TestLifecycleNodeDeathPoints: a host releases after its handler (or
// without one), a switch on ingress consumption, no route and an Inject on
// an unattached port.
func TestLifecycleNodeDeathPoints(t *testing.T) {
	s := sim.New(1)
	p := NewPacketPool()
	released := func(t *testing.T, pkt *Packet) {
		t.Helper()
		if n := len(p.free); n != 1 || p.free[0] != pkt {
			t.Fatalf("packet not released (free list holds %d)", n)
		}
		p.free = p.free[:0]
	}

	t.Run("host-no-handler", func(t *testing.T) {
		h := NewHost(s, "h")
		pkt := p.Get()
		h.Receive(pkt, 0)
		released(t, pkt)
	})
	t.Run("host-handler", func(t *testing.T) {
		h := NewHost(s, "h")
		seen := 0
		h.Default = PacketHandlerFunc(func(pkt *Packet) {
			seen++
			if pkt.home == nil {
				t.Error("packet released before its handler ran")
			}
		})
		pkt := p.Get()
		h.Receive(pkt, 0)
		if seen != 1 {
			t.Fatal("handler did not run")
		}
		released(t, pkt)
	})
	t.Run("host-unattached-send", func(t *testing.T) {
		pkt := p.Get()
		if NewHost(s, "h").Send(pkt) {
			t.Fatal("Send on an unattached host reported success")
		}
		released(t, pkt)
	})
	t.Run("switch-consumed", func(t *testing.T) {
		sw := NewSwitch(s, "sw", 1)
		sw.AddIngressHook(consumeHook{})
		pkt := p.Get()
		sw.Receive(pkt, 0)
		released(t, pkt)
	})
	t.Run("switch-no-route", func(t *testing.T) {
		sw := NewSwitch(s, "sw", 1)
		pkt := p.Get()
		sw.Receive(pkt, 0)
		if sw.NoRoute != 1 {
			t.Fatal("NoRoute not counted")
		}
		released(t, pkt)
	})
	t.Run("switch-inject-unattached", func(t *testing.T) {
		sw := NewSwitch(s, "sw", 1)
		pkt := p.Get()
		if sw.Inject(pkt, 0) {
			t.Fatal("Inject on an unattached port reported success")
		}
		released(t, pkt)
	})
}

// TestLifecycleCapturedPacketIsPinned: a capture observer may hold on to
// the packets it is shown (capture tests inspect them after the run), so
// the first captured event pins a packet for good — it is not recycled at
// the captured link's drop, nor at any later death point downstream, and it
// is never on the free list when the observer is handed it. Every
// CaptureKind is walked: a congestion drop is the one death point whose
// capture is the packet's first, so releasing before capturing there goes
// unseen by the other four.
func TestLifecycleCapturedPacketIsPinned(t *testing.T) {
	cases := []struct {
		name  string
		size  int // the queue holds 150 bytes
		setup func(s *sim.Sim, l *Link)
		kinds []CaptureKind
	}{
		{"deliver", 100, func(*sim.Sim, *Link) {}, []CaptureKind{CaptureSend, CaptureDeliver}},
		{"failure-drop", 100, func(_ *sim.Sim, l *Link) { l.AB.SetFailure(FailEntries(1, 0, 1.0, 9)) },
			[]CaptureKind{CaptureSend, CaptureFailureDrop}},
		{"chaos-drop", 100, func(s *sim.Sim, l *Link) {
			c := NewChaos(s, "x")
			c.CorruptData = 1
			l.AB.SetChaos(c)
		}, []CaptureKind{CaptureSend, CaptureChaosDrop}},
		{"congestion-drop", 200, func(*sim.Sim, *Link) {}, []CaptureKind{CaptureCongestionDrop}},
	}
	var walked [CaptureChaosDrop + 1]uint64
	for _, tc := range cases {
		run := func(withCapture bool) (pool *PacketPool, sent *Packet, retained *Packet, seen []CaptureKind) {
			s := sim.New(1)
			a := &sinkNode{name: "a", s: s}
			h := NewHost(s, "h") // no handler: delivered packets die here
			l := Connect(s, a, 0, h, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6, QueueBytes: 150})
			tc.setup(s, l)
			pool = NewPacketPool()
			if withCapture {
				l.AB.SetCapture(func(ev CaptureEvent) {
					if len(pool.free) != 0 {
						t.Errorf("%s: observer handed a packet at %v with the free list holding %d", tc.name, ev.Kind, len(pool.free))
					}
					retained, seen = ev.Pkt, append(seen, ev.Kind)
					walked[ev.Kind]++
				})
			}
			sent = pool.Get()
			sent.Proto, sent.Entry, sent.Size = ProtoUDP, 9, tc.size
			a.tx.Send(sent)
			s.Run(0)
			return pool, sent, retained, seen
		}
		if pool, sent, _, _ := run(false); len(pool.free) != 1 || pool.free[0] != sent {
			t.Errorf("%s without capture: packet not recycled", tc.name)
		}
		pool, sent, retained, seen := run(true)
		if retained != sent || !slices.Equal(seen, tc.kinds) {
			t.Fatalf("%s: capture observer saw %v of packet %p, want %v of %p", tc.name, seen, retained, tc.kinds, sent)
		}
		if len(pool.free) != 0 {
			t.Errorf("%s with capture: a packet the observer holds was recycled", tc.name)
		}
		if pool.Get() == retained {
			t.Errorf("%s: Get handed out the packet the capture observer holds", tc.name)
		}
	}
	for kind, n := range walked {
		if n == 0 {
			t.Errorf("no case captures a %v", CaptureKind(kind))
		}
	}
}

// TestLifecycleChaosDelayedPacketStaysLive: a jitter-delayed packet is held
// by its deferred delivery; it must not be in the free list meanwhile, and
// must come home once it is delivered.
func TestLifecycleChaosDelayedPacketStaysLive(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	h := NewHost(s, "h")
	l := Connect(s, a, 0, h, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	c := NewChaos(s, "x")
	c.Reorder, c.JitterMax = 1, 5*sim.Millisecond
	l.AB.SetChaos(c)
	p := NewPacketPool()
	pkt := p.Get()
	pkt.Proto, pkt.Size = ProtoUDP, 100
	a.tx.Send(pkt)
	s.Run(sim.Millisecond + sim.Microsecond) // arrived, verdict = delay
	if c.Stats.Reordered != 1 || h.Received != 0 {
		t.Fatalf("packet was not delayed (reordered %d, received %d)", c.Stats.Reordered, h.Received)
	}
	if len(p.free) != 0 {
		t.Fatal("delayed packet was released while its delivery is pending")
	}
	s.Run(0)
	if h.Received != 1 || len(p.free) != 1 {
		t.Fatalf("after delivery: received %d, free %d, want 1 and 1", h.Received, len(p.free))
	}
}
