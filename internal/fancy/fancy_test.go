package fancy

import (
	"math/rand"
	"reflect"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// testbed is a two-switch topology:
//
//	src — up(0) … up(1) ——link—— down(0) … down(1) — dst
//
// The up switch monitors its port 1; the down switch listens on its port 0.
// Failures are injected on the up→down link direction.
type testbed struct {
	s        *sim.Sim
	src, dst *netsim.Host
	up, down *netsim.Switch
	link     *netsim.Link // up — down, the monitored link
	bed      *netsim.LinkBed
	det      *Detector
	downDet  *Detector
	out      *Outputs
	events   []Event
}

func newTestbed(t *testing.T, cfg Config, seed int64) *testbed {
	t.Helper()
	tb := newBareTestbed(seed)
	pair, err := DeployLink(tb.bed, cfg)
	if err != nil {
		t.Fatalf("DeployLink: %v", err)
	}
	tb.det, tb.downDet, tb.out = pair.Upstream, pair.Downstream, pair.Out
	tb.det.OnEvent = func(ev Event) { tb.events = append(tb.events, ev) }
	return tb
}

// newBareTestbed is the testbed's topology with nothing deployed on it.
func newBareTestbed(seed int64) *testbed {
	edge := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 10e9}
	core := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 10e9}
	b := netsim.NewLinkBed(sim.New(seed), edge, core, false)
	return &testbed{bed: b, s: b.Sim, src: b.Src, dst: b.Dst, up: b.Up, down: b.Down, link: b.Link}
}

// udp schedules a CBR UDP stream for entry between start and stop.
func (tb *testbed) udp(entry netsim.EntryID, rateBps float64, start, stop sim.Time) {
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

func (tb *testbed) failEntries(at sim.Time, rate float64, entries ...netsim.EntryID) *netsim.Failure {
	f := netsim.FailEntries(tb.s.DeriveSeed("testbed/fail"), at, rate, entries...)
	tb.link.AB.SetFailure(f)
	return f
}

func (tb *testbed) firstEvent(kind EventKind) (Event, bool) {
	for _, ev := range tb.events {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return Event{}, false
}

func (tb *testbed) countEvents(kind EventKind) int {
	n := 0
	for _, ev := range tb.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

var testCfg = Config{
	HighPriority: []netsim.EntryID{10, 11, 12},
	Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
	TreeSeed:     7,
}

func TestPlanAutoWidth(t *testing.T) {
	cfg := Config{
		HighPriority: make([]netsim.EntryID, 500),
		MemoryBytes:  20_000, // paper: 20 KB per port
	}
	for i := range cfg.HighPriority {
		cfg.HighPriority[i] = netsim.EntryID(i)
	}
	l, err := cfg.Plan()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if l.Tree.Depth != 3 || l.Tree.Split != 2 || !l.Tree.Pipelined {
		t.Errorf("default tree params = %+v, want d=3 k=2 pipelined", l.Tree)
	}
	if l.Tree.Width < 100 || l.Tree.Width > 256 {
		t.Errorf("auto width = %d, want 100..256 for 20KB budget", l.Tree.Width)
	}
	if l.TotalBits > l.BudgetBits {
		t.Errorf("layout %d bits exceeds budget %d", l.TotalBits, l.BudgetBits)
	}
}

func TestPlanRejectsOverBudget(t *testing.T) {
	cfg := Config{
		HighPriority: make([]netsim.EntryID, 5000),
		MemoryBytes:  10_000, // 80 kbit budget < 400 kbit of dedicated state
	}
	if _, err := cfg.Plan(); err == nil {
		t.Fatal("Plan accepted an over-budget configuration")
	}
	cfg2 := Config{
		MemoryBytes: 1000,
		Tree:        tree.Params{Width: 200, Depth: 3, Split: 2, Pipelined: true},
	}
	if _, err := cfg2.Plan(); err == nil {
		t.Fatal("Plan accepted a tree larger than the budget")
	}
}

func TestPlanDuplicateHighPriority(t *testing.T) {
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw", 2)
	cfg := testCfg
	cfg.HighPriority = []netsim.EntryID{5, 5}
	if _, err := NewDetector(s, sw, cfg); err == nil {
		t.Fatal("duplicate high-priority entries accepted")
	}
}

func TestPaperLayoutMatchesAppendix(t *testing.T) {
	// The paper's software evaluation: 500 dedicated entries + w190/d3/k2
	// pipelined tree within 20 KB per port.
	cfg := Config{
		HighPriority: make([]netsim.EntryID, 500),
		MemoryBytes:  20_000,
		Tree:         tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
	}
	for i := range cfg.HighPriority {
		cfg.HighPriority[i] = netsim.EntryID(i)
	}
	l, err := cfg.Plan()
	if err != nil {
		t.Fatalf("paper configuration rejected: %v", err)
	}
	if l.DedicatedBits != 500*80 {
		t.Errorf("dedicated bits = %d, want 40000", l.DedicatedBits)
	}
	if l.Tree.Nodes() != 7 {
		t.Errorf("nodes = %d, want 7", l.Tree.Nodes())
	}
}

func TestDedicatedDetection(t *testing.T) {
	tb := newTestbed(t, testCfg, 1)
	tb.udp(10, 2e6, 0, 5*sim.Second)
	const failAt = 1 * sim.Second
	tb.failEntries(failAt, 1.0, 10)
	tb.s.Run(5 * sim.Second)

	ev, ok := tb.firstEvent(EventDedicated)
	if !ok {
		t.Fatal("blackhole on a dedicated entry not detected")
	}
	if ev.Entry != 10 {
		t.Errorf("flagged entry %d, want 10", ev.Entry)
	}
	lat := ev.Time - failAt
	// Expected ≈ exchange interval (50 ms) + session open/close overhead.
	if lat <= 0 || lat > 400*sim.Millisecond {
		t.Errorf("detection latency = %v, want < 400ms", lat)
	}
	if !tb.det.Flagged(1, 10) {
		t.Error("Flagged(10) = false after detection")
	}
	if tb.out.Flags.Count() != 1 {
		t.Errorf("flag count = %d, want 1 (no false positives)", tb.out.Flags.Count())
	}
}

func TestNoFalsePositivesWithoutFailure(t *testing.T) {
	tb := newTestbed(t, testCfg, 2)
	tb.udp(10, 2e6, 0, 3*sim.Second)  // dedicated
	tb.udp(200, 2e6, 0, 3*sim.Second) // best effort
	tb.s.Run(4 * sim.Second)

	for _, kind := range []EventKind{EventDedicated, EventTreeLeaf, EventUniform, EventLinkDown} {
		if n := tb.countEvents(kind); n != 0 {
			t.Errorf("%v raised %d times without any failure", kind, n)
		}
	}
	if tb.det.SessionsCompleted(1) == 0 {
		t.Error("no sessions completed; protocol is not cycling")
	}
}

func TestTreeDetectionSingleEntry(t *testing.T) {
	tb := newTestbed(t, testCfg, 3)
	const entry = netsim.EntryID(500) // best effort
	tb.udp(entry, 2e6, 0, 8*sim.Second)
	tb.udp(600, 2e6, 0, 8*sim.Second) // healthy background
	const failAt = 1 * sim.Second
	tb.failEntries(failAt, 1.0, entry)
	tb.s.Run(8 * sim.Second)

	if _, ok := tb.firstEvent(EventTreeZoomStart); !ok {
		t.Fatal("zooming never started")
	}
	ev, ok := tb.firstEvent(EventTreeLeaf)
	if !ok {
		t.Fatal("tree never reached a mismatching leaf")
	}
	lat := ev.Time - failAt
	// Lower bound ≈ depth × zooming interval (3 × 200 ms).
	if lat < 400*sim.Millisecond || lat > 2*sim.Second {
		t.Errorf("tree detection latency = %v, want ≈600ms..2s", lat)
	}
	if !tb.det.Flagged(1, entry) {
		t.Error("failed entry not flagged via the Bloom filter")
	}
	if tb.det.Flagged(1, 600) {
		t.Error("healthy entry flagged (hash collision with w=32 is possible but unlikely)")
	}
	// The reported path must equal the entry's hash path.
	want := tb.det.EntryPath(1, entry)
	if len(ev.Path) != len(want) {
		t.Fatalf("leaf path %v, want %v", ev.Path, want)
	}
	for i := range want {
		if ev.Path[i] != want[i] {
			t.Fatalf("leaf path %v, want %v", ev.Path, want)
		}
	}
}

func TestTreeDetectionMultiEntry(t *testing.T) {
	tb := newTestbed(t, testCfg, 4)
	failed := []netsim.EntryID{300, 301, 302, 303}
	for _, e := range failed {
		tb.udp(e, 1e6, 0, 15*sim.Second)
	}
	tb.udp(700, 1e6, 0, 15*sim.Second)
	tb.failEntries(1*sim.Second, 1.0, failed...)
	tb.s.Run(15 * sim.Second)

	for _, e := range failed {
		if !tb.det.Flagged(1, e) {
			t.Errorf("multi-entry failure: entry %d not flagged", e)
		}
	}
	if tb.det.Flagged(1, 700) {
		t.Error("healthy entry flagged during multi-entry failure")
	}
}

func TestUniformFailureDetectedAsUniform(t *testing.T) {
	tb := newTestbed(t, testCfg, 5)
	// Many best-effort entries so most root counters carry traffic.
	for e := netsim.EntryID(100); e < 160; e++ {
		tb.udp(e, 400e3, 0, 5*sim.Second)
	}
	f := netsim.FailUniform(42, 1*sim.Second, 0.5)
	tb.link.AB.SetFailure(f)
	tb.s.Run(5 * sim.Second)

	ev, ok := tb.firstEvent(EventUniform)
	if !ok {
		t.Fatal("uniform failure not classified as uniform")
	}
	lat := ev.Time - 1*sim.Second
	// §5.1.3: average detection time matches one zooming interval.
	if lat > 600*sim.Millisecond {
		t.Errorf("uniform detection latency = %v, want ≈1 zooming interval", lat)
	}
}

func TestPartialLossDetected(t *testing.T) {
	tb := newTestbed(t, testCfg, 6)
	tb.udp(10, 5e6, 0, 10*sim.Second) // dedicated, 625 pkt/s
	tb.failEntries(1*sim.Second, 0.01, 10)
	tb.s.Run(10 * sim.Second)
	if _, ok := tb.firstEvent(EventDedicated); !ok {
		t.Fatal("1% loss on a busy dedicated entry not detected within 9s")
	}
}

func TestControlLossResilience(t *testing.T) {
	// Drop half of the control messages too: stop-and-wait retransmission
	// must still close sessions and detect the failure. Entry 10 is the only
	// traffic, so uniform loss hits its data and the control messages alike.
	tb := newTestbed(t, testCfg, 7)
	tb.udp(10, 2e6, 0, 10*sim.Second)
	tb.link.AB.SetFailure(netsim.FailUniform(tb.s.DeriveSeed("testbed/fail"), 1*sim.Second, 0.5))
	tb.s.Run(10 * sim.Second)
	if _, ok := tb.firstEvent(EventDedicated); !ok {
		t.Fatal("failure not detected despite control-plane retransmissions")
	}
}

func TestReverseControlLoss(t *testing.T) {
	// Loss on the reverse direction hits StartACK/Report. The link is
	// still monitorable thanks to retransmission (the strawman protocol
	// of §4.1 would lose whole sessions here).
	tb := newTestbed(t, testCfg, 8)
	tb.udp(10, 2e6, 0, 10*sim.Second)
	tb.link.BA.SetFailure(netsim.FailUniform(13, 0, 0.3))
	tb.failEntries(1*sim.Second, 1.0, 10)
	tb.s.Run(10 * sim.Second)
	if _, ok := tb.firstEvent(EventDedicated); !ok {
		t.Fatal("failure not detected under reverse-direction control loss")
	}
}

func TestLinkDownAfterMaxAttempts(t *testing.T) {
	tb := newTestbed(t, testCfg, 9)
	tb.udp(10, 1e6, 0, 5*sim.Second)
	// Hard failure: everything dropped, including control messages.
	tb.link.AB.SetFailure(netsim.FailUniform(14, 1*sim.Second, 1.0))
	tb.s.Run(5 * sim.Second)
	ev, ok := tb.firstEvent(EventLinkDown)
	if !ok {
		t.Fatal("total blackhole did not raise link-down")
	}
	// X=5 attempts at Trtx=50ms ≈ 250 ms after the last exchange.
	if ev.Time < 1*sim.Second || ev.Time > 2*sim.Second {
		t.Errorf("link-down at %v, want shortly after 1s", ev.Time)
	}
}

func TestTagsStrippedBeforeForwarding(t *testing.T) {
	tb := newTestbed(t, testCfg, 10)
	var tagged int
	tb.dst.Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Tagged {
			tagged++
		}
	})
	tb.udp(10, 2e6, 0, 1*sim.Second)
	tb.udp(300, 2e6, 0, 1*sim.Second)
	tb.s.Run(2 * sim.Second)
	if tagged != 0 {
		t.Errorf("%d tagged packets escaped the monitored link", tagged)
	}
}

func TestSessionCadence(t *testing.T) {
	tb := newTestbed(t, testCfg, 11)
	tb.udp(10, 1e6, 0, 3*sim.Second)
	tb.s.Run(3 * sim.Second)
	// Each dedicated unit cycles roughly every interval + open/close
	// (≈50+42 ms on a 10 ms link) → ≈32 sessions in 3 s; the tree every
	// ≈242 ms → ≈12. Three dedicated units + tree ≥ 60 total.
	got := tb.det.SessionsCompleted(1)
	if got < 40 || got > 200 {
		t.Errorf("SessionsCompleted = %d, want ≈100", got)
	}
}

func TestNonPipelinedTreeDetects(t *testing.T) {
	cfg := testCfg
	cfg.Tree = tree.Params{Width: 32, Depth: 3, Split: 1, Pipelined: false}
	tb := newTestbed(t, cfg, 12)
	const entry = netsim.EntryID(500)
	tb.udp(entry, 2e6, 0, 10*sim.Second)
	tb.udp(600, 2e6, 0, 10*sim.Second)
	tb.failEntries(1*sim.Second, 1.0, entry)
	tb.s.Run(10 * sim.Second)
	if !tb.det.Flagged(1, entry) {
		t.Fatal("non-pipelined tree did not flag the failed entry")
	}
	if tb.det.Flagged(1, 600) {
		t.Error("non-pipelined tree flagged a healthy entry")
	}
}

func TestCountingPausesDuringExchange(t *testing.T) {
	// Indirect check of the stop-and-wait trade-off: the dedicated unit
	// does not count while opening/closing sessions, so over a fixed time
	// the counted packets are fewer than the sent packets even without
	// loss — but never more.
	tb := newTestbed(t, testCfg, 13)
	tb.udp(10, 2e6, 0, 2*sim.Second)
	tb.s.Run(3 * sim.Second)
	if n := tb.countEvents(EventDedicated); n != 0 {
		t.Errorf("counting pauses misclassified as failures: %d events", n)
	}
}

func TestFlaggedUnmonitoredPort(t *testing.T) {
	tb := newTestbed(t, testCfg, 14)
	if tb.det.Flagged(0, 10) {
		t.Error("unmonitored port reported a flag")
	}
	if tb.det.Outputs(0) != nil {
		t.Error("Outputs for unmonitored port should be nil")
	}
	if tb.det.EntryPath(0, 10) != nil {
		t.Error("EntryPath for unmonitored port should be nil")
	}
}

func TestAcknowledgeLifecycle(t *testing.T) {
	tb := newTestbed(t, testCfg, 16)
	tb.udp(10, 2e6, 0, 8*sim.Second)
	tb.udp(300, 2e6, 0, 8*sim.Second)
	// Failure heals at 3s.
	tb.link.AB.SetFailure(netsim.FailEntries(99, 1*sim.Second, 1.0, 10, 300))
	tb.s.ScheduleAt(3*sim.Second, func() { tb.link.AB.SetFailure(nil) })
	tb.s.Run(4 * sim.Second)
	if !tb.det.Flagged(1, 10) || !tb.det.Flagged(1, 300) {
		t.Fatal("precondition: both entries flagged")
	}
	// Operator acknowledges after the repair: flags clear and (failure
	// gone) stay clear.
	tb.det.Acknowledge(1)
	if tb.det.Flagged(1, 10) || tb.det.Flagged(1, 300) {
		t.Fatal("Acknowledge did not clear the outputs")
	}
	tb.s.Run(6 * sim.Second)
	if tb.det.Flagged(1, 10) || tb.det.Flagged(1, 300) {
		t.Error("flags returned without a failure")
	}
	tb.det.Acknowledge(0) // unmonitored port: no-op
}

func TestAcknowledgeReflagsWhileFailing(t *testing.T) {
	tb := newTestbed(t, testCfg, 17)
	tb.udp(10, 2e6, 0, 8*sim.Second)
	tb.failEntries(1*sim.Second, 1.0, 10) // persists
	tb.s.Run(2 * sim.Second)
	if !tb.det.Flagged(1, 10) {
		t.Fatal("precondition: flagged")
	}
	tb.det.Acknowledge(1)
	tb.s.Run(3 * sim.Second)
	if !tb.det.Flagged(1, 10) {
		t.Error("persistent failure did not re-flag after Acknowledge")
	}
}

func TestOverheadAccounting(t *testing.T) {
	tb := newTestbed(t, testCfg, 15)
	tb.udp(10, 1e6, 0, 2*sim.Second)
	tb.s.Run(2 * sim.Second)
	if tb.det.CtlMsgsSent == 0 || tb.det.CtlBytesSent == 0 {
		t.Fatal("control overhead counters not populated")
	}
	// Sanity: per session the sender sends Start and Stop (≥2 messages).
	if tb.det.CtlMsgsSent < 2*tb.det.SessionsCompleted(1) {
		t.Errorf("CtlMsgsSent = %d < 2×sessions (%d)", tb.det.CtlMsgsSent, tb.det.SessionsCompleted(1))
	}
}

func TestIntermittentFailureDetected(t *testing.T) {
	// §2.1: intermittent gray failures are the ones operators never
	// manage to diagnose. FANcY's continuous sessions catch the bursts:
	// any burst overlapping a counting window produces a mismatch.
	tb := newTestbed(t, testCfg, 61)
	tb.udp(10, 2e6, 0, 10*sim.Second)
	// Bursts of 80 ms, shorter than a session, once a second from 1 s on.
	f := netsim.FailEntries(5, 1*sim.Second, 1.0, 10)
	for on := 1 * sim.Second; on < 10*sim.Second; on += sim.Second {
		tb.s.ScheduleAt(on, func() { tb.link.AB.SetFailure(f) })
		tb.s.ScheduleAt(on+80*sim.Millisecond, func() { tb.link.AB.SetFailure(nil) })
	}
	tb.s.Run(10 * sim.Second)

	ev, ok := tb.firstEvent(EventDedicated)
	if !ok {
		t.Fatal("intermittent failure never detected")
	}
	if lat := ev.Time - sim.Second; lat > 500*sim.Millisecond {
		t.Errorf("first burst detected after %v, want within a few sessions", lat)
	}
	// Each ~1s period has one burst → roughly one flagging session per
	// period; sanity-check that detection repeats across bursts.
	if n := tb.countEvents(EventDedicated); n < 4 {
		t.Errorf("only %d mismatch events across ~9 bursts", n)
	}
}

func TestStringersAndAccessors(t *testing.T) {
	// EventKind/Event stringers.
	for _, k := range []EventKind{EventDedicated, EventTreeZoomStart, EventTreeLeaf,
		EventUniform, EventLinkDown, EventKind(77)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	evs := []Event{
		{Kind: EventDedicated, Entry: 5, Diff: 2},
		{Kind: EventTreeLeaf, Path: []uint16{1, 2}, Diff: 3},
		{Kind: EventUniform},
	}
	for _, ev := range evs {
		if ev.String() == "" {
			t.Errorf("empty Event string for %v", ev.Kind)
		}
	}

	tb := newTestbed(t, testCfg, 71)
	if got := tb.det.Config(); len(got.HighPriority) != 3 {
		t.Error("Config accessor broken")
	}
	if slot, ok := tb.det.DedicatedSlot(11); !ok || slot != 1 {
		t.Errorf("DedicatedSlot(11) = %d,%v; want 1,true", slot, ok)
	}
	if _, ok := tb.det.DedicatedSlot(999); ok {
		t.Error("DedicatedSlot for best-effort entry reported true")
	}
	if tb.det.LinkDown(1) {
		t.Error("LinkDown true on a healthy link")
	}
	if tb.det.Layout.String() == "" {
		t.Error("Layout string empty")
	}
}

func TestOutputStructuresEdges(t *testing.T) {
	fa := NewFlagArray(10)
	fa.Set(-1)
	fa.Set(10)
	if fa.Count() != 0 {
		t.Error("out-of-range Set changed the array")
	}
	if fa.Get(-1) || fa.Get(10) {
		t.Error("out-of-range Get returned true")
	}
	fa.Set(3)
	fa.Set(3) // idempotent
	if fa.Count() != 1 || fa.Len() != 10 {
		t.Errorf("count=%d len=%d", fa.Count(), fa.Len())
	}
	fa.Clear(9) // unset slot: no-op
	if fa.Count() != 1 {
		t.Error("Clear of unset slot changed the count")
	}

	pb := NewPathBloom(10) // below the 64-cell floor
	if pb.cells != 64 {
		t.Errorf("cells = %d, want the 64-cell floor", pb.cells)
	}
	if pb.Contains([]uint16{1}) {
		t.Error("empty bloom contains something")
	}
	pb.Insert([]uint16{1, 2, 3})
	if !pb.Contains([]uint16{1, 2, 3}) || pb.inserted != 1 {
		t.Error("bloom insert/contains broken")
	}
	pb.Reset()
	if pb.Contains([]uint16{1, 2, 3}) || pb.inserted != 0 {
		t.Error("bloom Reset ineffective")
	}
}

// TestPathBloomAllocatesOnFirstInsert pins the port Bloom's laziness: no
// register exists until a path is flagged, a never-inserted filter answers
// as the eager one did, and from the first Insert on the two are the same
// filter, bit for bit.
func TestPathBloomAllocatesOnFirstInsert(t *testing.T) {
	const cells = DefaultBloomCells
	words := (cells + 63) / 64
	eager := &PathBloom{reg0: make([]uint64, words), reg1: make([]uint64, words), cells: cells}

	lazy := NewPathBloom(cells)
	probe := []uint16{7, 7, 7}
	idle := func() {
		if lazy.Contains(probe) || lazy.inserted != 0 || lazy.cells != cells {
			t.Fatal("a never-inserted filter does not read as empty")
		}
		lazy.Reset()
	}
	if avg := testing.AllocsPerRun(10, idle); avg != 0 {
		t.Errorf("Contains/Reset on a never-inserted filter allocate %.1f objects, want 0", avg)
	}
	if lazy.reg0 != nil || lazy.reg1 != nil {
		t.Fatal("registers exist before the first Insert")
	}

	rng := rand.New(rand.NewSource(20220822))
	path := func() []uint16 {
		return []uint16{uint16(rng.Intn(190)), uint16(rng.Intn(190)), uint16(rng.Intn(190))}
	}
	for i := 0; i < 500; i++ {
		p := path()
		eager.Insert(p)
		lazy.Insert(p)
	}
	if len(lazy.reg0) != words || len(lazy.reg1) != words {
		t.Fatalf("registers hold %d and %d words after Insert, want %d each", len(lazy.reg0), len(lazy.reg1), words)
	}
	if !reflect.DeepEqual(lazy, eager) {
		t.Fatal("lazy and eager filters differ after the same inserts")
	}
	for i := 0; i < 5000; i++ {
		if p := path(); lazy.Contains(p) != eager.Contains(p) {
			t.Fatalf("Contains(%v) = %v, eager filter says %v", p, lazy.Contains(p), eager.Contains(p))
		}
	}
	lazy.Reset()
	if lazy.inserted != 0 || lazy.Contains(probe) || lazy.cells != cells {
		t.Error("Reset after inserts left the filter non-empty")
	}
}
