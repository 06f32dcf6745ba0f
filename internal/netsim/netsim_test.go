package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fancy/internal/sim"
)

// sinkNode records everything it receives.
type sinkNode struct {
	name string
	got  []*Packet
	at   []sim.Time
	s    *sim.Sim
	tx   *LinkEnd
}

func (n *sinkNode) Name() string                 { return n.name }
func (n *sinkNode) Attach(port int, tx *LinkEnd) { n.tx = tx }
func (n *sinkNode) Receive(pkt *Packet, port int) {
	n.got = append(n.got, pkt)
	n.at = append(n.at, n.s.Now())
}

func TestIPv4Helpers(t *testing.T) {
	addr := IPv4(10, 1, 2, 3)
	if addr != 0x0a010203 {
		t.Errorf("IPv4 = %#x, want 0x0a010203", addr)
	}
	e := EntryID(0x0a0102)
	if EntryAddr(e, 3) != addr {
		t.Errorf("EntryAddr = %#x, want %#x", EntryAddr(e, 3), addr)
	}
}

func TestLinkDelayAndSerialization(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	// 1 Mbps, 10 ms delay: a 1250-byte packet serializes in exactly 10 ms.
	Connect(s, a, 0, b, 0, LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 1e6})
	a.tx.Send(&Packet{Size: 1250})
	s.Run(0)
	if len(b.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(b.got))
	}
	if want := 20 * sim.Millisecond; b.at[0] != want {
		t.Errorf("delivery at %v, want %v", b.at[0], want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: 1 * sim.Millisecond, RateBps: 1e6})
	// Two packets sent at t=0 serialize back to back.
	a.tx.Send(&Packet{Size: 1250})
	a.tx.Send(&Packet{Size: 1250})
	s.Run(0)
	if len(b.got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(b.got))
	}
	if b.at[0] != 11*sim.Millisecond || b.at[1] != 21*sim.Millisecond {
		t.Errorf("deliveries at %v, %v; want 11ms, 21ms", b.at[0], b.at[1])
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: 0, RateBps: 1e6, QueueBytes: 3000})
	sent, dropped := 0, 0
	for i := 0; i < 5; i++ {
		if a.tx.Send(&Packet{Size: 1000}) {
			sent++
		} else {
			dropped++
		}
	}
	if sent != 3 || dropped != 2 {
		t.Errorf("sent=%d dropped=%d, want 3/2", sent, dropped)
	}
	s.Run(0)
	st := l.AB.Stats()
	if st.CongestionDrops != 2 || st.Delivered != 3 {
		t.Errorf("stats = %+v, want 2 congestion drops, 3 delivered", st)
	}
	// Queue drains after serialization completes; further sends succeed.
	if !a.tx.Send(&Packet{Size: 1000}) {
		t.Error("send after drain should succeed")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: 1 * sim.Millisecond, RateBps: 1e9})
	a.tx.Send(&Packet{Size: 100, ID: 1})
	b.tx.Send(&Packet{Size: 100, ID: 2})
	s.Run(0)
	if len(b.got) != 1 || b.got[0].ID != 1 {
		t.Error("a→b direction broken")
	}
	if len(a.got) != 1 || a.got[0].ID != 2 {
		t.Error("b→a direction broken")
	}
}

func TestFailureWindow(t *testing.T) {
	f := NewFailure(1)
	f.Start = 1 * sim.Second
	f.End = 2 * sim.Second
	f.Uniform = 1
	pkt := &Packet{Entry: 5}
	if f.Drop(pkt, 500*sim.Millisecond) {
		t.Error("dropped before window")
	}
	if !f.Drop(pkt, 1500*sim.Millisecond) {
		t.Error("not dropped inside window")
	}
	if f.Drop(pkt, 2500*sim.Millisecond) {
		t.Error("dropped after window")
	}
	var nilF *Failure
	if nilF.Drop(pkt, 0) {
		t.Error("nil failure dropped a packet")
	}
}

func TestFailurePerEntrySelectivity(t *testing.T) {
	f := FailEntries(1, 0, 1.0, 7)
	if !f.Drop(&Packet{Entry: 7}, 1) {
		t.Error("failed entry not dropped")
	}
	if f.Drop(&Packet{Entry: 8}, 1) {
		t.Error("healthy entry dropped")
	}
	if f.Drop(&Packet{Proto: ProtoFancy, Entry: InvalidEntry}, 1) {
		t.Error("control packet dropped by per-entry failure")
	}
	if f.Dropped.Data != 1 {
		t.Errorf("data drop count = %d, want 1", f.Dropped.Data)
	}
}

func TestFailureControlDropsOption(t *testing.T) {
	f := FailEntries(1, 0, 1.0, 7)
	f.DropsControl = true
	if !f.Drop(&Packet{Proto: ProtoFancy, Entry: InvalidEntry}, 1) {
		t.Error("DropsControl failure should drop control packets")
	}
	if f.Dropped.Control != 1 {
		t.Errorf("control drop count = %d, want 1", f.Dropped.Control)
	}
}

func TestFailureUniformAffectsControl(t *testing.T) {
	f := FailUniform(1, 0, 1.0)
	if !f.Drop(&Packet{Proto: ProtoFancy}, 1) {
		t.Error("uniform blackhole must drop control packets")
	}
}

func TestFailureStatisticalRate(t *testing.T) {
	f := FailUniform(42, 0, 0.1)
	drops := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if f.Drop(&Packet{}, 1) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.09 || rate > 0.11 {
		t.Errorf("empirical drop rate = %.4f, want ≈0.10", rate)
	}
}

func TestRouteTableLPM(t *testing.T) {
	var rt RouteTable
	if rt.Lookup(IPv4(1, 2, 3, 4)) != nil {
		t.Error("empty table returned a route")
	}
	rt.Insert(IPv4(10, 0, 0, 0), 8, Route{Port: 1, Backup: -1})
	rt.Insert(IPv4(10, 1, 0, 0), 16, Route{Port: 2, Backup: -1})
	rt.Insert(IPv4(10, 1, 2, 0), 24, Route{Port: 3, Backup: -1})
	rt.Insert(0, 0, Route{Port: 9, Backup: -1}) // default route

	cases := []struct {
		addr uint32
		port int
	}{
		{IPv4(10, 1, 2, 3), 3},
		{IPv4(10, 1, 9, 9), 2},
		{IPv4(10, 9, 9, 9), 1},
		{IPv4(192, 168, 0, 1), 9},
	}
	for _, c := range cases {
		r := rt.Lookup(c.addr)
		if r == nil || r.Port != c.port {
			t.Errorf("Lookup(%#x) = %+v, want port %d", c.addr, r, c.port)
		}
	}
	if rt.Len() != 4 {
		t.Errorf("Len = %d, want 4", rt.Len())
	}
}

func TestRouteTableReplace(t *testing.T) {
	var rt RouteTable
	rt.Insert(IPv4(10, 0, 0, 0), 8, Route{Port: 1})
	rt.Insert(IPv4(10, 0, 0, 0), 8, Route{Port: 2})
	if rt.Len() != 1 {
		t.Errorf("Len = %d after replace, want 1", rt.Len())
	}
	if r := rt.Lookup(IPv4(10, 0, 0, 1)); r.Port != 2 {
		t.Errorf("port = %d after replace, want 2", r.Port)
	}
}

func TestRouteTableInvalidPrefix(t *testing.T) {
	var rt RouteTable
	if _, err := rt.Insert(0, 33, Route{}); err == nil {
		t.Error("plen 33 accepted")
	}
	if _, err := rt.Insert(0, -1, Route{}); err == nil {
		t.Error("plen -1 accepted")
	}
}

func TestRouteBackupSwitching(t *testing.T) {
	r := Route{Port: 1, Backup: 2}
	if r.Egress() != 1 {
		t.Error("primary not used by default")
	}
	r.UseBackup = true
	if r.Egress() != 2 {
		t.Error("backup not used when flagged")
	}
	r2 := Route{Port: 1, Backup: -1, UseBackup: true}
	if r2.Egress() != 1 {
		t.Error("UseBackup without a backup must fall back to primary")
	}
}

// Property: LPM returns the most specific matching prefix out of a random
// set of /8, /16, /24 prefixes.
func TestPropertyLPM(t *testing.T) {
	f := func(addrs []uint32) bool {
		var rt RouteTable
		type pfx struct {
			addr uint32
			plen int
			port int
		}
		var inserted []pfx
		for i, a := range addrs {
			plen := []int{8, 16, 24}[i%3]
			mask := uint32(0xffffffff) << (32 - plen)
			p := pfx{a & mask, plen, i + 1}
			inserted = append(inserted, p)
			rt.Insert(p.addr, p.plen, Route{Port: p.port, Backup: -1})
			if len(inserted) >= 64 {
				break
			}
		}
		for _, a := range addrs {
			want := -1
			bestLen := -1
			for _, p := range inserted {
				mask := uint32(0xffffffff) << (32 - p.plen)
				if a&mask == p.addr && p.plen > bestLen {
					// Later inserts replace earlier ones for the same prefix.
					bestLen, want = p.plen, p.port
				}
			}
			// Replacement semantics: find the LAST insert with that prefix.
			if bestLen >= 0 {
				for _, p := range inserted {
					mask := uint32(0xffffffff) << (32 - p.plen)
					if p.plen == bestLen && a&mask == p.addr {
						want = p.port
					}
				}
			}
			r := rt.Lookup(a)
			got := -1
			if r != nil {
				got = r.Port
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestSwitchForwarding(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 4)
	src := &sinkNode{name: "src", s: s}
	dst := &sinkNode{name: "dst", s: s}
	Connect(s, src, 0, sw, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	Connect(s, sw, 1, dst, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	sw.Routes.InsertEntry(100, Route{Port: 1, Backup: -1})

	src.tx.Send(&Packet{Dst: EntryAddr(100, 1), Entry: 100, Size: 100})
	src.tx.Send(&Packet{Dst: EntryAddr(999, 1), Entry: 999, Size: 100}) // no route
	s.Run(0)
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(dst.got))
	}
	if sw.Forwarded != 1 || sw.NoRoute != 1 {
		t.Errorf("Forwarded=%d NoRoute=%d, want 1/1", sw.Forwarded, sw.NoRoute)
	}
}

type recordingIngress struct {
	seen    int
	consume func(*Packet) bool
}

func (r *recordingIngress) OnIngress(pkt *Packet, port int) bool {
	r.seen++
	if r.consume != nil {
		return r.consume(pkt)
	}
	return false
}

type recordingEgress struct{ seen int }

func (r *recordingEgress) OnEgress(pkt *Packet, port int) { r.seen++ }

func TestSwitchHooks(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 2)
	src := &sinkNode{name: "src", s: s}
	dst := &sinkNode{name: "dst", s: s}
	Connect(s, src, 0, sw, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	Connect(s, sw, 1, dst, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	sw.Routes.InsertEntry(1, Route{Port: 1, Backup: -1})

	in := &recordingIngress{consume: func(p *Packet) bool { return p.Proto == ProtoFancy }}
	eg := &recordingEgress{}
	sw.AddIngressHook(in)
	sw.AddEgressHook(eg)

	src.tx.Send(&Packet{Dst: EntryAddr(1, 1), Entry: 1, Size: 100})
	src.tx.Send(&Packet{Proto: ProtoFancy, Size: 64})
	s.Run(0)

	if in.seen != 2 {
		t.Errorf("ingress saw %d, want 2", in.seen)
	}
	if eg.seen != 1 {
		t.Errorf("egress saw %d, want 1 (control consumed at ingress)", eg.seen)
	}
	if sw.Consumed != 1 {
		t.Errorf("Consumed = %d, want 1", sw.Consumed)
	}
	if len(dst.got) != 1 {
		t.Errorf("delivered %d, want 1", len(dst.got))
	}
}

func TestSwitchEgressHookAfterTM(t *testing.T) {
	// Egress hooks must not observe congestion-dropped packets.
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 2)
	src := &sinkNode{name: "src", s: s}
	dst := &sinkNode{name: "dst", s: s}
	Connect(s, src, 0, sw, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	// Slow egress with a tiny queue: most packets are congestion drops.
	l := Connect(s, sw, 1, dst, 0, LinkConfig{Delay: 0, RateBps: 1e6, QueueBytes: 2000})
	sw.Routes.InsertEntry(1, Route{Port: 1, Backup: -1})
	eg := &recordingEgress{}
	sw.AddEgressHook(eg)

	for i := 0; i < 10; i++ {
		src.tx.Send(&Packet{Dst: EntryAddr(1, 1), Entry: 1, Size: 1000})
	}
	s.Run(0)
	st := l.AB.Stats()
	if st.CongestionDrops == 0 {
		t.Fatal("expected congestion drops in this setup")
	}
	if eg.seen != int(st.Sent) {
		t.Errorf("egress hook saw %d packets, want %d (only TM-admitted)", eg.seen, st.Sent)
	}
	if eg.seen+int(st.CongestionDrops) != 10 {
		t.Errorf("admitted+dropped = %d, want 10", eg.seen+int(st.CongestionDrops))
	}
}

func TestSwitchInject(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 2)
	dst := &sinkNode{name: "dst", s: s}
	Connect(s, sw, 1, dst, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	if !sw.Inject(&Packet{Proto: ProtoFancy, Size: 64}, 1) {
		t.Fatal("Inject failed")
	}
	if sw.Inject(&Packet{}, 0) {
		t.Error("Inject to unattached port should fail")
	}
	s.Run(0)
	if len(dst.got) != 1 {
		t.Errorf("delivered %d, want 1", len(dst.got))
	}
}

func TestSwitchReroute(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 3)
	src := &sinkNode{name: "src", s: s}
	d1 := &sinkNode{name: "d1", s: s}
	d2 := &sinkNode{name: "d2", s: s}
	Connect(s, src, 0, sw, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	Connect(s, sw, 1, d1, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	Connect(s, sw, 2, d2, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	route := sw.Routes.InsertEntry(1, Route{Port: 1, Backup: 2})

	src.tx.Send(&Packet{Dst: EntryAddr(1, 1), Entry: 1, Size: 100})
	s.Run(0)
	route.UseBackup = true
	src.tx.Send(&Packet{Dst: EntryAddr(1, 1), Entry: 1, Size: 100})
	s.Run(0)

	if len(d1.got) != 1 || len(d2.got) != 1 {
		t.Errorf("d1=%d d2=%d, want 1 each (reroute must divert the second packet)", len(d1.got), len(d2.got))
	}
}

func TestHostDemux(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h")
	peer := &sinkNode{name: "peer", s: s}
	Connect(s, peer, 0, h, 0, LinkConfig{Delay: 0, RateBps: 1e9})

	var flowPkts, defPkts int
	h.Bind(7, PacketHandlerFunc(func(p *Packet) { flowPkts++ }))
	h.Default = PacketHandlerFunc(func(p *Packet) { defPkts++ })

	peer.tx.Send(&Packet{Flow: 7, Size: 10})
	peer.tx.Send(&Packet{Flow: 8, Size: 10})
	s.Run(0)
	if flowPkts != 1 || defPkts != 1 {
		t.Errorf("flow=%d default=%d, want 1/1", flowPkts, defPkts)
	}

	h.Bind(7, nil)
	peer.tx.Send(&Packet{Flow: 7, Size: 10})
	s.Run(0)
	if defPkts != 2 {
		t.Errorf("unbound flow should fall to default, defPkts=%d", defPkts)
	}
}

func TestHostSendUnattached(t *testing.T) {
	h := NewHost(sim.New(1), "h")
	if h.Send(&Packet{}) {
		t.Error("Send on unattached host should fail")
	}
}

func TestLinkFailureDropsCounted(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	l.AB.SetFailure(FailEntries(1, 0, 1.0, 5))
	a.tx.Send(&Packet{Entry: 5, Size: 100})
	a.tx.Send(&Packet{Entry: 6, Size: 100})
	s.Run(0)
	st := l.AB.Stats()
	if st.FailureDrops != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v, want 1 failure drop, 1 delivered", st)
	}
	if len(b.got) != 1 || b.got[0].Entry != 6 {
		t.Error("wrong packet survived the failure")
	}
}

func BenchmarkLinkThroughput(b *testing.B) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	dst := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, dst, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.tx.Send(&Packet{Size: 1500})
		if i%1024 == 0 {
			s.Run(0)
			dst.got = dst.got[:0]
			dst.at = dst.at[:0]
		}
	}
	s.Run(0)
}

func TestFailureConstructors(t *testing.T) {
	// FailFlows: deterministic flow-subset selection.
	f := FailFlows(1, 0, 0.3, 1.0)
	selected, n := 0, 5000
	for i := 0; i < n; i++ {
		if f.Drop(&Packet{Flow: FlowID(i), Proto: ProtoTCP}, 1) {
			selected++
		}
	}
	frac := float64(selected) / float64(n)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("flow fraction = %.3f, want ≈0.30", frac)
	}
	// Same flow, same verdict: selection must be deterministic.
	f2 := FailFlows(99, 0, 0.3, 1.0)
	for i := 0; i < 100; i++ {
		p := &Packet{Flow: FlowID(i), Proto: ProtoTCP}
		if f.Drop(p, 1) != f2.Drop(p, 1) {
			t.Fatal("flow selection depends on the RNG seed")
		}
	}

	// FailSizes: only the configured byte range drops.
	fs := FailSizes(2, 0, 700, 900, 1.0)
	if !fs.Drop(&Packet{Size: 800}, 1) {
		t.Error("in-range size not dropped")
	}
	if fs.Drop(&Packet{Size: 699}, 1) || fs.Drop(&Packet{Size: 901}, 1) {
		t.Error("out-of-range size dropped")
	}
}

func TestAccessors(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "hostname")
	if h.Name() != "hostname" || h.Sim() != s {
		t.Error("host accessors broken")
	}
	sw := NewSwitch(s, "swname", 2)
	if sw.Name() != "swname" || sw.NumPorts() != 2 {
		t.Error("switch accessors broken")
	}
	a := &sinkNode{name: "a", s: s}
	l := Connect(s, a, 0, sw, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6})
	if l.AB.dir.failure != nil {
		t.Error("fresh link has a failure")
	}
	fl := NewFailure(1)
	l.AB.SetFailure(fl)
	if l.AB.dir.failure != fl {
		t.Error("SetFailure did not install the failure")
	}
	if l.AB.dir.busyUntil > s.Now() {
		t.Error("idle link reports busy")
	}
	a.tx.Send(&Packet{Size: 10_000})
	if busy := l.AB.dir.busyUntil > s.Now(); !busy || l.AB.QueueDepthBytes() != 10_000 {
		t.Errorf("busy=%v depth=%d, want true/10000", busy, l.AB.QueueDepthBytes())
	}
	s.Run(0)
	if l.AB.QueueDepthBytes() != 0 {
		t.Error("queue did not drain")
	}
}

// TestConnectRejectsNegativeParameters: a negative rate, delay or queue
// size panics at Connect, not mid-run (a negative delay would schedule in
// the past, or put a packet ahead of the lane it joins) and not as a link
// that silently drops everything (a negative queue).
func TestConnectRejectsNegativeParameters(t *testing.T) {
	for _, c := range []struct {
		cfg  LinkConfig
		want string
	}{
		{LinkConfig{RateBps: -1}, "negative rate"},
		{LinkConfig{Delay: -sim.Millisecond}, "negative delay"},
		{LinkConfig{QueueBytes: -1}, "negative queue"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("Connect(%+v) panicked with %v, want %q", c.cfg, r, c.want)
				}
			}()
			s := sim.New(1)
			Connect(s, &sinkNode{s: s}, 0, &sinkNode{s: s}, 0, c.cfg)
		}()
	}
}

func TestPacketString(t *testing.T) {
	cases := []*Packet{
		{Proto: ProtoFancy, Size: 64},
		{Proto: ProtoUDP, Flow: 1, Entry: 2, Size: 100},
		{Proto: ProtoTCP, Flow: 3, Entry: 4, Seq: 5, Ack: 6, Len: 7, Flags: FlagACK},
	}
	for _, p := range cases {
		if p.String() == "" {
			t.Errorf("empty String() for %+v", p)
		}
	}
}

func TestHostAttachPanics(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h")
	defer func() {
		if recover() == nil {
			t.Error("host Attach on port 1 should panic")
		}
	}()
	h.Attach(1, nil)
}

func TestSwitchAttachPanics(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 1)
	a := &sinkNode{name: "a", s: s}
	Connect(s, a, 0, sw, 0, LinkConfig{RateBps: 1e6})
	defer func() {
		if recover() == nil {
			t.Error("double attach should panic")
		}
	}()
	sw.Attach(0, nil)
}

func TestFailureIntermittentDutyCycle(t *testing.T) {
	f := FailEntries(1, sim.Second, 1.0, 5)
	f.BurstOn = 100 * sim.Millisecond
	f.BurstOff = 300 * sim.Millisecond
	pkt := &Packet{Entry: 5}
	cases := []struct {
		at   sim.Time
		drop bool
	}{
		{500 * sim.Millisecond, false},  // before Start
		{1050 * sim.Millisecond, true},  // first burst
		{1200 * sim.Millisecond, false}, // off phase
		{1450 * sim.Millisecond, true},  // second burst
		{1700 * sim.Millisecond, false}, // off phase
	}
	for _, c := range cases {
		if got := f.Drop(pkt, c.at); got != c.drop {
			t.Errorf("Drop at %v = %v, want %v", c.at, got, c.drop)
		}
	}
}

func TestSwitchTapsAndLocalDeliv(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw", 2)
	src := &sinkNode{name: "src", s: s}
	dst := &sinkNode{name: "dst", s: s}
	Connect(s, src, 0, sw, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	Connect(s, sw, 1, dst, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	sw.Routes.InsertEntry(1, Route{Port: 1, Backup: -1})

	var taps int
	sw.OnForwarded(func(p *Packet, in, out int) {
		if in != 0 || out != 1 {
			t.Errorf("tap ports = %d→%d, want 0→1", in, out)
		}
		taps++
	})
	var local int
	sw.LocalDeliv = func(p *Packet, port int) { local++ }

	src.tx.Send(&Packet{Dst: EntryAddr(1, 1), Entry: 1, Size: 100})
	src.tx.Send(&Packet{Dst: EntryAddr(9, 1), Entry: 9, Size: 100}) // no route → local
	s.Run(0)
	if taps != 1 {
		t.Errorf("forward taps = %d, want 1", taps)
	}
	if local != 1 {
		t.Errorf("local deliveries = %d, want 1", local)
	}
	if sw.NoRoute != 0 {
		t.Errorf("NoRoute = %d with LocalDeliv set, want 0", sw.NoRoute)
	}
	// Port accessor bounds.
	if sw.Port(-1) != nil || sw.Port(5) != nil {
		t.Error("out-of-range Port returned a handle")
	}
	if sw.Port(0) == nil {
		t.Error("attached Port returned nil")
	}
}

func TestZeroRateLinkHasNoSerializationDelay(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	Connect(s, a, 0, b, 0, LinkConfig{Delay: 3 * sim.Millisecond, RateBps: 0})
	a.tx.Send(&Packet{Size: 1_000_000})
	s.Run(0)
	if len(b.got) != 1 || b.at[0] != 3*sim.Millisecond {
		t.Fatalf("zero-rate link delivery at %v, want pure propagation 3ms", b.at[0])
	}
}
