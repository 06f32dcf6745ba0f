package fancy

// Packet-lifecycle tests (netsim.PacketPool): recycling is host-side memory
// reuse and nothing else, so a run in which every packet is recycled and a
// run in which none is must be the same run; and the counting protocol's
// steady state must not allocate.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
	"fancy/internal/wire"
)

// lifecycleTranscript is everything a run lets an observer see.
type lifecycleTranscript struct {
	SrcReceived, DstReceived uint64
	Forwarded                uint64 // FNV-1a over every packet either switch forwarded, in order
	Links                    [6]netsim.LinkStats
	Chaos                    [2]netsim.ChaosStats
	TCP                      []tcp.Stats
	UDPSent                  uint64
	UpEvents, DownEvents     []Event
	UpStats, DownStats       DetectorStats
	CtlMsgs, CtlBytes        uint64
}

// lifecycleRun drives UDP, TCP and FANcY over src — up ═ down — dst with a
// gray failure and every chaos class on the monitored link. With capture
// set, a (no-op) capture observer sits on every link direction, which pins
// every packet at its first hop: nothing is ever recycled. It also returns
// how often the three kinds of pool reused a packet.
func lifecycleRun(t *testing.T, capture bool) (lifecycleTranscript, uint64) {
	t.Helper()
	tb := newTestbed(t, testCfg, 11)
	s := tb.s
	var tr lifecycleTranscript
	tb.downDet.OnEvent = func(ev Event) { tr.DownEvents = append(tr.DownEvents, ev) }

	h := fnv.New64a()
	tap := func(pkt *netsim.Packet, in, out int) {
		fmt.Fprintf(h, "%d %d>%d %d/%d/%d seq%d ack%d %dB tag%v %x|",
			s.Now(), in, out, pkt.Proto, pkt.Flow, pkt.Entry, pkt.Seq, pkt.Ack, pkt.Size, pkt.Tagged, pkt.Ctl)
	}
	tb.up.OnForwarded(tap)
	tb.down.OnForwarded(tap)

	var ends []*netsim.LinkEnd // [2] is up→down, the failed direction
	for _, l := range []*netsim.Link{tb.bed.Edges[0], tb.link, tb.bed.Edges[1]} {
		ends = append(ends, l.AB, l.BA)
	}
	if capture {
		for _, e := range ends {
			e.SetCapture(func(netsim.CaptureEvent) {})
		}
	}

	chaos := [2]*netsim.Chaos{netsim.NewChaos(s, "ab"), netsim.NewChaos(s, "ba")}
	for _, c := range chaos {
		c.Start = 300 * sim.Millisecond
		c.CorruptCtl, c.CorruptData, c.Duplicate, c.Reorder = 0.05, 0.005, 0.05, 0.1
		c.DownFor, c.UpFor = 150*sim.Millisecond, 900*sim.Millisecond
	}
	tb.link.AB.SetChaos(chaos[0])
	tb.link.BA.SetChaos(chaos[1])
	tb.failEntries(sim.Second, 0.5, 10, 40)

	const stop = 3 * sim.Second
	var udps []*traffic.UDPSource
	for _, e := range []netsim.EntryID{10, 11, 40, 41} {
		u := traffic.NewUDPSource(s, tb.src, netsim.FlowID(e), e, netsim.EntryAddr(e, 1), 2e6, 1000, stop)
		u.Start()
		udps = append(udps, u)
	}
	var flows []*tcp.Sender
	for i, e := range []netsim.EntryID{12, 42, 43} {
		f := tcp.NewSender(s, tb.src, tb.dst, netsim.FlowID(100+i), e,
			netsim.IPv4(172, 16, 0, 1), netsim.EntryAddr(e, 1), 8_000_000, tcp.Config{RateBps: 20e6})
		f.Start()
		flows = append(flows, f)
	}
	s.Run(stop)

	tr.SrcReceived, tr.DstReceived = tb.src.Received, tb.dst.Received
	tr.Forwarded = h.Sum64()
	for i, e := range ends {
		tr.Links[i] = e.Stats()
	}
	for i, c := range chaos {
		tr.Chaos[i] = c.Stats
	}
	for _, f := range flows {
		tr.TCP = append(tr.TCP, f.Stats)
	}
	for _, u := range udps {
		tr.UDPSent += u.Sent
	}
	tr.UpEvents = tb.events
	tr.UpStats, tr.DownStats = tb.det.Stats(), tb.downDet.Stats()
	tr.CtlMsgs = tb.det.CtlMsgsSent + tb.downDet.CtlMsgsSent
	tr.CtlBytes = tb.det.CtlBytesSent + tb.downDet.CtlBytesSent

	reuses := tb.src.Pool().Reuses + tb.dst.Pool().Reuses + tb.det.ctlPkts.Reuses + tb.downDet.ctlPkts.Reuses
	return tr, reuses
}

// TestLifecycleRecycledRunEqualsPinnedRun is the differential test of the
// packet lifecycle, with no mode switch to flip: capture observers pin
// every packet, so the captured run recycles nothing and the plain run
// recycles nearly everything — and the two must be indistinguishable.
func TestLifecycleRecycledRunEqualsPinnedRun(t *testing.T) {
	recycled, reuses := lifecycleRun(t, false)
	pinned, pinnedReuses := lifecycleRun(t, true)
	if pinnedReuses != 0 {
		t.Fatalf("captured run reused %d packets; a captured packet must be pinned", pinnedReuses)
	}
	sent := recycled.CtlMsgs + recycled.UDPSent
	for _, st := range recycled.TCP {
		sent += st.SegmentsSent
	}
	if reuses < sent*9/10 {
		t.Fatalf("plain run reused %d packets of %d+ sent; the lifecycle is not recycling", reuses, sent)
	}

	// The scenario must exercise what it claims to.
	c := recycled.Chaos[0]
	if c.CorruptedCtl == 0 || c.CorruptedData == 0 || c.Duplicated == 0 || c.Reordered == 0 || c.FlapDrops == 0 {
		t.Fatalf("chaos classes not all exercised: %+v", c)
	}
	var rtx uint64
	for _, st := range recycled.TCP {
		rtx += st.Retransmits
	}
	if recycled.Links[2].FailureDrops == 0 || len(recycled.UpEvents) == 0 || rtx == 0 {
		t.Fatalf("scenario too tame: %d failure drops, %d events, %d retransmits",
			recycled.Links[2].FailureDrops, len(recycled.UpEvents), rtx)
	}

	rv, pv := reflect.ValueOf(recycled), reflect.ValueOf(pinned)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Errorf("%s differs:\n recycled %+v\n pinned   %+v",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), pv.Field(i).Interface())
		}
	}
}

// TestTaggedPacketPathDoesNotAllocate pins the per-packet detector work on
// an open session: the upstream's OnEgress counts and tags a packet, the
// downstream's OnIngress counts and strips the tag, for a dedicated entry
// and for an entry the tree counts, without allocating.
func TestTaggedPacketPathDoesNotAllocate(t *testing.T) {
	tb := newTestbed(t, testCfg, 44)
	up, down := tb.det.monitors[1], tb.downDet.listeners[0]
	for i := 0; up.dedicated[0].state != sCounting || up.tree.state != sCounting ||
		down.dedicated[0] == nil || down.dedicated[0].state != rCounting ||
		down.tree == nil || down.tree.state != rCounting; i++ {
		if i == 1000 {
			t.Fatal("the dedicated and tree sessions never counted at the same time")
		}
		tb.s.Run(tb.s.Now() + sim.Millisecond)
	}
	for _, c := range []struct {
		name  string
		entry netsim.EntryID
		rx    *receiverFSM
	}{
		{"dedicated", testCfg.HighPriority[0], down.dedicated[0]},
		{"tree", 500, down.tree},
	} {
		pkt := &netsim.Packet{Proto: netsim.ProtoUDP, Size: 1000}
		hop := func() {
			pkt.Entry, pkt.Dst = c.entry, netsim.EntryAddr(c.entry, 1)
			tb.det.OnEgress(pkt, 1)
			tb.downDet.OnIngress(pkt, 0)
		}
		before := c.rx.tagged
		if avg := testing.AllocsPerRun(100, hop); avg != 0 {
			t.Errorf("%s: a tagged packet's egress and ingress allocate %.2f objects, want 0", c.name, avg)
		}
		if c.rx.tagged-before != 101 || pkt.Tagged || pkt.Size != 1000 {
			t.Errorf("%s: receiver counted %d of 101 tagged packets (tag left %v, size %d)",
				c.name, c.rx.tagged-before, pkt.Tagged, pkt.Size)
		}
	}
}

// TestUnitStartAllocatesOnlyItsFSM pins what a promoted unit costs to bring
// up. Its timers fire the FSM itself (sessionOpen, rtxFire, countingEnd,
// reportWait), so starting a promoted slot's sender allocates its record
// (FSM and counter) alone, and so does creating its receiver and arming
// Twait (FSM, counter and Report buffer); a method value bound for a timer
// would add one object each. A record serves one incarnation, so the
// receiver is built for the dynamic slot, which takes a fresh record every
// time: a static slot takes its port block's record once (see
// TestDedicatedFirstStartAllocatesNothing).
func TestUnitStartAllocatesOnlyItsFSM(t *testing.T) {
	cfg := testCfg
	cfg.DynamicSlots = 1
	tb := newTestbed(t, cfg, 44)
	// Warm the event pool past what the runs below queue.
	var held []sim.Timer
	for i := 0; i < 300; i++ {
		held = append(held, tb.s.ScheduleTimer(sim.Second, func() {}))
	}
	for i := range held {
		held[i].Stop()
	}

	up := tb.det
	dynamic := len(cfg.HighPriority)
	startSender := func() {
		up.startDedicated(new(senderUnit), 1, dynamic, 500, sim.Millisecond)
	}
	if avg := testing.AllocsPerRun(100, startSender); avg != 1 {
		t.Errorf("starting a promoted sender allocates %.2f objects, want 1 (its record)", avg)
	}

	down := tb.downDet
	l := down.listeners[0]
	stop := &wire.Message{Header: wire.Header{Type: wire.MsgStop, Kind: wire.KindDedicated, Session: 1, Unit: uint16(dynamic)}}
	var rx *receiverFSM
	startReceiver := func() {
		rx = down.newReceiverFSM(l, 0, uint16(dynamic), wire.KindDedicated)
		rx.session, rx.haveSess, rx.state = 1, true, rCounting // as a Start leaves it
		rx.onControl(stop)
	}
	if avg := testing.AllocsPerRun(100, startReceiver); avg != 1 {
		t.Errorf("creating a promoted receiver and arming its Twait allocates %.2f objects, want 1 (its record)", avg)
	}
	if rx.state != rWaitToSend || !rx.twait.Active() {
		t.Errorf("the receiver FSM is in state %v with Twait armed %v, want waiting to send", rx.state, rx.twait.Active())
	}
}

// TestMonitorPortAllocatesPerPort pins the per-port sender block: the
// static slots' FSMs and counters are one allocation, so MonitorPort
// allocates as many objects for 1 static slot as for 16. Both carry the
// 8 dynamic slots of the grid deployment; the slot map is sized for static
// and dynamic slots together, and a map of up to 8 entries is 2 objects
// where a larger one is 4, whatever its size.
func TestMonitorPortAllocatesPerPort(t *testing.T) {
	const ports = 12
	allocs := func(static int) float64 {
		cfg := testCfg
		cfg.DynamicSlots = 8
		cfg.HighPriority = make([]netsim.EntryID, static)
		for i := range cfg.HighPriority {
			cfg.HighPriority[i] = netsim.EntryID(10 + i)
		}
		s := sim.New(1)
		det, err := NewDetector(s, netsim.NewSwitch(s, "up", ports), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the event pool past what the runs below queue.
		var held []sim.Timer
		for i := 0; i < ports*(static+1)+100; i++ {
			held = append(held, s.ScheduleTimer(sim.Second, func() {}))
		}
		for i := range held {
			held[i].Stop()
		}
		port := 0
		avg := testing.AllocsPerRun(ports-1, func() {
			det.MonitorPort(port)
			port++
		})
		if port != ports {
			t.Fatalf("monitored %d ports, want %d", port, ports)
		}
		for p := 0; p < ports; p++ {
			m := det.monitors[p]
			if m == nil || len(m.dedicated) != static+8 || len(m.free) != 8 || m.tree == nil {
				t.Fatalf("port %d: monitor %+v not fully built", p, m)
			}
			for slot := 1; slot < static; slot++ {
				if m.dedicated[slot] == m.dedicated[0] || m.dedicated[slot].unit != uint16(slot) {
					t.Fatalf("port %d slot %d: FSM %p is not its own unit", p, slot, m.dedicated[slot])
				}
			}
		}
		return avg
	}
	one, sixteen := allocs(1), allocs(16)
	if one != sixteen {
		t.Errorf("MonitorPort allocates %.2f objects with 1 static slot and %.2f with 16, want the same", one, sixteen)
	}
}

// TestTreeUnitsShareDetectorHasher pins one tree hasher per detector:
// every monitored port's tree counters, pipelined or staged, hash with the
// one NewDetector built, and so do the counters Restart builds in their
// place.
func TestTreeUnitsShareDetectorHasher(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		cfg := testCfg
		cfg.Tree.Pipelined = pipelined
		s := sim.New(1)
		det, err := NewDetector(s, netsim.NewSwitch(s, "up", 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for port := range det.monitors {
			det.MonitorPort(port)
		}
		check := func(when string) {
			for port, m := range det.monitors {
				var h *tree.Hasher
				switch c := m.tree.counters.(type) {
				case *pipelinedSender:
					h = c.hasher
				case *stagedSender:
					h = c.hasher
				}
				if h == nil || h != det.hasher {
					t.Errorf("pipelined=%v, %s: port %d's tree counters %T hash with %p, not the detector's %p", pipelined, when, port, m.tree.counters, h, det.hasher)
				}
			}
		}
		check("monitored")
		before := det.monitors[0].tree.counters
		det.Restart()
		if det.monitors[0].tree.counters == before {
			t.Fatalf("pipelined=%v: Restart kept port 0's tree counters", pipelined)
		}
		check("restarted")
	}
}

// TestDedicatedFirstStartAllocatesNothing pins the per-port receiver block:
// once a listener's block exists, a static unit's first Start takes its
// record from it, and the unit's first Report marshals its counter from
// the record's own one-counter buffer into a recycled control packet, so
// neither allocates.
func TestDedicatedFirstStartAllocatesNothing(t *testing.T) {
	cfg := testCfg
	cfg.HighPriority = make([]netsim.EntryID, 16)
	for i := range cfg.HighPriority {
		cfg.HighPriority[i] = netsim.EntryID(10 + i)
	}
	s := sim.New(1)
	// Port 0 has no link: every control message dies at Inject and goes
	// straight back to the detector's pool.
	det, err := NewDetector(s, netsim.NewSwitch(s, "down", 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.ListenPort(0)
	l := det.listeners[0]
	start := &wire.Message{Header: wire.Header{Type: wire.MsgStart, Kind: wire.KindDedicated, Epoch: 1, Session: 1}}
	stop := &wire.Message{Header: wire.Header{Type: wire.MsgStop, Kind: wire.KindDedicated, Epoch: 1, Session: 1}}
	unit := 0
	firstSession := func() {
		start.Unit, stop.Unit = uint16(unit), uint16(unit)
		det.handleControl(start, 0)
		det.handleControl(stop, 0)
		s.Run(s.Now() + DefaultTwait) // Twait fires the Report
		unit++
	}
	firstSession() // allocates the block, the pooled packet and the event pool
	if avg := testing.AllocsPerRun(10, firstSession); avg != 0 {
		t.Errorf("a dedicated unit's first Start and Report allocate %.2f objects, want 0", avg)
	}
	for u := 0; u < unit; u++ {
		f := l.dedicated[u]
		if f != &l.block[u].fsm || f.state != rIdle || len(f.lastReport) != 1 {
			t.Fatalf("unit %d: FSM %p (block record %p) in state %v with report %v, want its record, idle, reported",
				u, f, &l.block[u].fsm, f.state, f.lastReport)
		}
	}
	if want := uint64(2 * unit); det.CtlMsgsSent != want {
		t.Errorf("sent %d control messages, want %d (an ACK and a Report per unit)", det.CtlMsgsSent, want)
	}
}

// TestLifecycleDedicatedSessionDoesNotAllocate pins the counting protocol's
// steady state: a dedicated-counter session — Start, StartACK, Stop, Report,
// each marshalled into a recycled packet's Ctl buffer, parsed from it at the
// peer, and the packet brought home — allocates nothing.
func TestLifecycleDedicatedSessionDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	up, down := netsim.NewSwitch(s, "up", 1), netsim.NewSwitch(s, "down", 1)
	netsim.Connect(s, up, 0, down, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 10e9})
	cfg := testCfg
	det, err := NewDetector(s, up, cfg)
	if err != nil {
		t.Fatal(err)
	}
	downDet, err := NewDetector(s, down, cfg)
	if err != nil {
		t.Fatal(err)
	}
	downDet.ListenPort(0)
	det.MonitorPort(0)
	ded := det.monitors[0].dedicated[0]

	// Warm up: event pool, packet pools, Ctl buffers, report scratch.
	s.Run(sim.Second)
	session := func() {
		for before := ded.SessionsCompleted; ded.SessionsCompleted == before; {
			s.Run(s.Now() + 10*sim.Millisecond)
		}
	}
	msgs := det.CtlMsgsSent + downDet.CtlMsgsSent
	if avg := testing.AllocsPerRun(50, session); avg != 0 {
		t.Errorf("a counting session allocates %.2f objects, want 0", avg)
	}
	if det.CtlMsgsSent+downDet.CtlMsgsSent-msgs < 4*50 {
		t.Error("fewer than four control messages per session were exchanged")
	}
	if det.ctlPkts.Reuses == 0 || downDet.ctlPkts.Reuses == 0 {
		t.Error("control packets were not recycled")
	}
}
