package traffic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
)

func TestSteadyEntryRateAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := SteadyEntry(5, 1e6, 50, 10*sim.Second, rng)
	// ≈50 flows/s × 10 s = ≈500 flows.
	if len(specs) < 450 || len(specs) > 550 {
		t.Errorf("flows = %d, want ≈500", len(specs))
	}
	var bytes int64
	for _, f := range specs {
		if f.Entry != 5 {
			t.Fatalf("wrong entry %d", f.Entry)
		}
		if f.Start < 0 || f.Start >= 11*sim.Second {
			t.Fatalf("start %v out of range", f.Start)
		}
		bytes += f.Bytes
	}
	// Aggregate ≈1 Mbps over 10 s = 1.25 MB.
	rate := float64(bytes) * 8 / 10
	if rate < 0.8e6 || rate > 1.2e6 {
		t.Errorf("aggregate rate = %.0f bps, want ≈1e6", rate)
	}
}

func TestSteadyEntryDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if SteadyEntry(1, 0, 50, sim.Second, rng) != nil {
		t.Error("zero rate should yield no flows")
	}
	if SteadyEntry(1, 1e6, 0, sim.Second, rng) != nil {
		t.Error("zero fps should yield no flows")
	}
	if SteadyEntry(1, 1e6, 50, 0, rng) != nil {
		t.Error("zero duration should yield no flows")
	}
}

func TestSteadyEntryTinyFlowsHaveMinimumSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := SteadyEntry(1, 100, 10, 5*sim.Second, rng) // 10 bps per flow
	for _, f := range specs {
		if f.Bytes < 40 {
			t.Fatalf("flow bytes = %d, want ≥40", f.Bytes)
		}
	}
}

func TestZipfShares(t *testing.T) {
	shares := ZipfShares(100, 1.0)
	if len(shares) != 100 {
		t.Fatalf("len = %d", len(shares))
	}
	var sum float64
	for i, s := range shares {
		sum += s
		if i > 0 && s > shares[i-1] {
			t.Fatal("shares must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v, want 1", sum)
	}
	// Rank-1 share with s=1 over 100 entries ≈ 1/H(100) ≈ 0.193.
	if shares[0] < 0.15 || shares[0] > 0.25 {
		t.Errorf("top share = %v, want ≈0.19", shares[0])
	}
	if ZipfShares(0, 1) != nil {
		t.Error("n=0 must return nil")
	}
}

func TestPropertyZipfSharesNormalized(t *testing.T) {
	f := func(n uint8, sRaw uint8) bool {
		if n == 0 {
			return true
		}
		s := 0.5 + float64(sRaw%20)/10 // 0.5 .. 2.4
		shares := ZipfShares(int(n), s)
		var sum float64
		for _, v := range shares {
			if v <= 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestZipfWorkloadSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specs := ZipfWorkload(50, 10e6, 100, 1.1, 10*sim.Second, rng)
	bytes := make(map[netsim.EntryID]int64)
	for _, f := range specs {
		bytes[f.Entry] += f.Bytes
	}
	if bytes[0] <= bytes[40] {
		t.Error("top entry should carry more bytes than rank-40 entry")
	}
	// Sorted by start time.
	for i := 1; i < len(specs); i++ {
		if specs[i].Start < specs[i-1].Start {
			t.Fatal("specs not sorted by start time")
		}
	}
}

func TestDriverRunsFlows(t *testing.T) {
	s := sim.New(1)
	src := netsim.NewHost(s, "src")
	dst := netsim.NewHost(s, "dst")
	sw := netsim.NewSwitch(s, "sw", 2)
	netsim.Connect(s, src, 0, sw, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	netsim.Connect(s, sw, 1, dst, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9})
	// Forward: entries → port 1. Reverse: src host's address → port 0.
	sw.Routes.Insert(0, 0, netsim.Route{Port: 1, Backup: -1})
	sw.Routes.Insert(netsim.IPv4(172, 16, 0, 0), 16, netsim.Route{Port: 0, Backup: -1})

	d := NewDriver(s, src, dst, tcp.Config{})
	rng := rand.New(rand.NewSource(4))
	specs := SteadyEntry(7, 1e6, 20, 2*sim.Second, rng)
	d.Schedule(specs)
	s.Run(20 * sim.Second)

	if d.Started() != uint64(len(specs)) {
		t.Errorf("started %d flows, want %d", d.Started(), len(specs))
	}
	if d.Completed() != len(specs) {
		t.Errorf("completed %d of %d flows", d.Completed(), len(specs))
	}
}

func TestUDPSourceRate(t *testing.T) {
	s := sim.New(1)
	h := netsim.NewHost(s, "h")
	peer := netsim.NewHost(s, "peer")
	netsim.Connect(s, h, 0, peer, 0, netsim.LinkConfig{Delay: 0, RateBps: 1e9})
	var got int
	peer.Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Proto != netsim.ProtoUDP || p.Entry != 3 {
			t.Errorf("unexpected packet %v", p)
		}
		got++
	})
	u := NewUDPSource(s, h, 99, 3, netsim.EntryAddr(3, 1), 1.2e6, 1500, 1*sim.Second)
	u.Start()
	s.Run(2 * sim.Second)
	// 1.2 Mbps / (1500*8 b) = 100 pps for 1 s.
	if got < 95 || got > 105 {
		t.Errorf("received %d packets, want ≈100", got)
	}
}

// TestUDPSourceRejectsRatesWithoutAGap: a rate that is not > 0, or whose
// gap is under a nanosecond or past sim.Time's range, panics at
// construction instead of flooding the link at a clamped gap.
func TestUDPSourceRejectsRatesWithoutAGap(t *testing.T) {
	s := sim.New(1)
	h := netsim.NewHost(s, "h")
	for _, rate := range []float64{0, -5, math.NaN(), math.Inf(-1), math.Inf(1), 1e-9, 1e13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUDPSource at %v bps did not panic", rate)
				}
			}()
			NewUDPSource(s, h, 1, 1, netsim.EntryAddr(1, 1), rate, 1000, sim.Second)
		}()
	}
	if u := NewUDPSource(s, h, 1, 1, netsim.EntryAddr(1, 1), 8e12, 1000, sim.Second); u.gap != sim.Nanosecond {
		t.Errorf("gap at 8 Tb/s = %v, want 1ns", u.gap)
	}
}

func TestSynthesizeMatchesTargets(t *testing.T) {
	cfg := TraceConfig{
		Name: "test", BitRateBps: 50e6, PacketRate: 6000, FlowRate: 250,
		Prefixes: 2000, Duration: 30 * sim.Second, Seed: 5,
	}
	tr := Synthesize(cfg)
	st := tr.Stats()
	if st.BitRateBps < 0.5*cfg.BitRateBps || st.BitRateBps > 1.5*cfg.BitRateBps {
		t.Errorf("bit rate = %.2e, want ≈%.2e", st.BitRateBps, cfg.BitRateBps)
	}
	if st.FlowRate < 0.5*cfg.FlowRate || st.FlowRate > 1.5*cfg.FlowRate {
		t.Errorf("flow rate = %.0f, want ≈%.0f", st.FlowRate, cfg.FlowRate)
	}
	if st.ActivePfx < 100 {
		t.Errorf("only %d active prefixes", st.ActivePfx)
	}
	// Heavy tail: historical top-500 prefixes must dominate the bytes, as
	// in real traces (the paper's top 10K prefixes carry ≥95%).
	if st.Top500Bytes < 0.3 {
		t.Errorf("top-500 byte share = %.2f, want heavy-tailed (>0.3)", st.Top500Bytes)
	}
}

func TestSynthesizeScaleDown(t *testing.T) {
	cfgs := StandardTraces(1000)
	if len(cfgs) != 4 {
		t.Fatalf("want 4 standard traces, got %d", len(cfgs))
	}
	tr := Synthesize(cfgs[0])
	st := tr.Stats()
	// Scaled by 1000: 6.25 Gbps → ≈6.25 Mbps.
	if st.BitRateBps > 20e6 {
		t.Errorf("scaled bit rate = %.2e, want ≈6e6", st.BitRateBps)
	}
	if len(tr.Specs) == 0 {
		t.Fatal("scaled trace has no flows")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := TraceConfig{BitRateBps: 10e6, PacketRate: 1000, FlowRate: 100,
		Prefixes: 500, Duration: 10 * sim.Second, Seed: 9}
	a, b := Synthesize(cfg), Synthesize(cfg)
	if len(a.Specs) != len(b.Specs) {
		t.Fatalf("non-deterministic flow counts: %d vs %d", len(a.Specs), len(b.Specs))
	}
	for i := range a.Specs {
		if a.Specs[i] != b.Specs[i] {
			t.Fatalf("spec %d differs", i)
		}
	}
}

func TestSliceTopOrdering(t *testing.T) {
	cfg := TraceConfig{BitRateBps: 10e6, PacketRate: 1000, FlowRate: 200,
		Prefixes: 300, Duration: 10 * sim.Second, Seed: 10}
	tr := Synthesize(cfg)
	top := tr.SliceTop(20)
	if len(top) != 20 {
		t.Fatalf("got %d top prefixes", len(top))
	}
	bytes := make(map[netsim.EntryID]int64)
	for _, f := range tr.Specs {
		bytes[f.Entry] += f.Bytes
	}
	for i := 1; i < len(top); i++ {
		if bytes[top[i]] > bytes[top[i-1]] {
			t.Fatal("SliceTop not in descending byte order")
		}
	}
}

func TestSliceRankingDiffersFromHistorical(t *testing.T) {
	// §5.2: the slice's top prefixes do not generally coincide with the
	// historical top (which drives dedicated-counter allocation).
	cfg := TraceConfig{BitRateBps: 10e6, PacketRate: 1000, FlowRate: 500,
		Prefixes: 1000, Duration: 10 * sim.Second, Seed: 11}
	tr := Synthesize(cfg)
	top := tr.SliceTop(100)
	outside := 0
	for _, e := range top {
		if int(e) >= 100 {
			outside++
		}
	}
	if outside == 0 {
		t.Error("slice top-100 identical to historical top-100; jitter ineffective")
	}
}

// TestSynthesizeSpecsNeverGrow: Synthesize allocates Specs once, at its
// bound FlowRate·Duration + Prefixes + 1, and never appends past it (an
// append past the capacity would move Specs to a larger array).
func TestSynthesizeSpecsNeverGrow(t *testing.T) {
	for _, scale := range []float64{1000, 100, 10} {
		for _, cfg := range StandardTraces(scale) {
			for _, dur := range []sim.Time{sim.Second, 6 * sim.Second} {
				for _, seed := range []int64{cfg.Seed, cfg.Seed + 1000, cfg.Seed + 2000} {
					cfg := cfg
					cfg.Duration, cfg.Seed = dur, seed
					tr := Synthesize(cfg)
					c := tr.Config
					bound := int(c.FlowRate*c.Duration.Seconds()) + c.Prefixes + 1
					if cap(tr.Specs) != bound || len(tr.Specs) == 0 {
						t.Fatalf("%s at 1/%v, %v, seed %d: %d specs in capacity %d, want capacity %d",
							c.Name, scale, dur, c.Seed, len(tr.Specs), cap(tr.Specs), bound)
					}
				}
			}
		}
	}
}

func BenchmarkSynthesizeTrace(b *testing.B) {
	cfg := StandardTraces(100)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Synthesize(cfg)
	}
}

// scheduleEach is the launch path Schedule replaced, kept as the reference
// for its order: one ScheduleAt per spec, in the order of specs.
func scheduleEach(d *Driver, specs []FlowSpec) {
	blk := tcp.NewBlock(len(specs))
	for _, spec := range specs {
		d.s.ScheduleAt(spec.Start, func() { d.launch(blk, spec) })
	}
}

// launchLog runs two overlapping Schedule calls through schedule, among
// marker events that tie with the launches, and logs every launch as
// (time, entry, flow ID) — the first packet of each flow on the source's
// uplink, sent from inside launch — interleaved with the markers.
func launchLog(t *testing.T, schedule func(*Driver, []FlowSpec)) (log string, pendingGrew int) {
	t.Helper()
	const ms = sim.Millisecond
	s := sim.New(1)
	src, dst := netsim.NewHost(s, "src"), netsim.NewHost(s, "dst")
	l := netsim.Connect(s, src, 0, dst, 0, netsim.LinkConfig{Delay: ms, RateBps: 1e9, QueueBytes: 1 << 22})
	var b strings.Builder
	seen := make(map[netsim.FlowID]bool)
	l.AB.SetCapture(func(ev netsim.CaptureEvent) {
		if !seen[ev.Pkt.Flow] {
			seen[ev.Pkt.Flow] = true
			fmt.Fprintf(&b, "%v launch entry %d flow %d\n", ev.Time, ev.Pkt.Entry, ev.Pkt.Flow)
		}
	})
	marker := func(name string, at sim.Time) {
		s.At(at, func() {
			fmt.Fprintf(&b, "%v marker %s\n", s.Now(), name)
			// A child at the current instant runs after every launch
			// already due now, whichever Schedule call queued it.
			s.At(s.Now(), func() { fmt.Fprintf(&b, "%v marker %s child\n", s.Now(), name) })
		})
	}
	spec := func(entry netsim.EntryID, start sim.Time) FlowSpec {
		return FlowSpec{Entry: entry, Start: start * ms, Bytes: 500}
	}

	marker("before", 2*ms)
	d := NewDriver(s, src, dst, tcp.Config{})
	first := []FlowSpec{spec(1, 5), spec(2, 2), spec(3, 2), spec(4, 0), spec(5, 5), spec(6, 2), spec(7, 9)}
	kept := slices.Clone(first)
	pending := s.Pending()
	schedule(d, first)
	if !slices.Equal(first, kept) {
		t.Error("Schedule reordered or changed the caller's specs")
	}
	grew := s.Pending() - pending
	// The caller reuses its slice; the flows already scheduled must not see it.
	first[0].Start, first[1].Entry = 0, 99
	marker("between", 5*ms)
	second := []FlowSpec{spec(11, 9), spec(12, 2), spec(13, 5), spec(14, 2), spec(15, 3)}
	schedule(d, second)
	marker("after", 2*ms)
	marker("after", 9*ms)
	s.Run(20 * ms)

	if d.Started() != uint64(len(kept)+len(second)) {
		t.Errorf("started %d flows, want %d", d.Started(), len(kept)+len(second))
	}
	return b.String(), grew
}

// Schedule keeps only the next launch queued, but every flow launches when
// and where the per-spec ScheduleAt path launched it: at the same time,
// with the same flow ID, in the same place among ties — within one call,
// across two interleaved calls, and against events scheduled before,
// between, after and from inside callbacks.
func TestScheduleLaunchesInPerSpecOrder(t *testing.T) {
	got, grew := launchLog(t, (*Driver).Schedule)
	want, _ := launchLog(t, scheduleEach)
	if got != want {
		t.Fatalf("Schedule launches differently from one ScheduleAt per spec\ngot:\n%s\nwant:\n%s", got, want)
	}
	if grew != 1 {
		t.Errorf("Schedule of 7 specs queued %d events, want 1", grew)
	}
}

// Schedule costs O(1) objects beyond its copy of specs: no closure, timer
// or event per spec.
func TestScheduleDoesNotAllocatePerSpec(t *testing.T) {
	s := sim.New(1)
	// Warm the event pool and the heap's capacity for the queued heads.
	for i := 0; i < 200; i++ {
		s.At(0, func() {})
	}
	s.Run(0)
	d := NewDriver(s, netsim.NewHost(s, "src"), netsim.NewHost(s, "dst"), tcp.Config{})
	cost := func(n int) float64 {
		specs := make([]FlowSpec, n)
		for i := range specs {
			specs[i] = FlowSpec{Entry: netsim.EntryID(i), Start: sim.Time(n-i) * sim.Millisecond, Bytes: 1}
		}
		return testing.AllocsPerRun(50, func() { d.Schedule(specs) })
	}
	small, large := cost(10), cost(10_000)
	if large != small {
		t.Fatalf("Schedule of 10 000 specs allocates %.1f objects, of 10 specs %.1f; want equal", large, small)
	}
	if small > 6 {
		t.Errorf("Schedule allocates %.1f objects, want ≤ 6 (the copy, the block, two closures, the sequence; Senders and the hosts' tables grow by doubling)", small)
	}
}

// TestScheduledFlowsAllocatePerBatch pins a Schedule's flows at one cost
// per batch: on a fresh simulation, 10 flows and 1 000, scheduled and run
// to completion, allocate the same number of objects, because every flow's
// connection record comes from the batch's one block and Senders and the
// hosts' handler tables are sized once. The flows do not overlap, so the
// event and packet pools grow no further than one flow needs.
func TestScheduledFlowsAllocatePerBatch(t *testing.T) {
	const gap = 5 * sim.Millisecond // well past one flow's 2 ms round trip
	cost := func(n int) float64 {
		specs := make([]FlowSpec, n)
		for i := range specs {
			specs[i] = FlowSpec{Entry: netsim.EntryID(i), Start: sim.Time(i) * gap, Bytes: 3000}
		}
		return testing.AllocsPerRun(5, func() {
			s := sim.New(1)
			src, dst := netsim.NewHost(s, "src"), netsim.NewHost(s, "dst")
			netsim.Connect(s, src, 0, dst, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9, QueueBytes: 1 << 22})
			d := NewDriver(s, src, dst, tcp.Config{})
			d.Schedule(specs)
			s.Run(sim.Time(n) * gap)
			if d.Completed() != n {
				t.Fatalf("%d of %d flows completed", d.Completed(), n)
			}
		})
	}
	small, large := cost(10), cost(1000)
	if large != small {
		t.Errorf("scheduling and running 1 000 flows allocates %.1f objects, 10 flows %.1f; want equal", large, small)
	}
}

// TestBlockFlowsMatchStandalone holds the flows of one Schedule, opened on
// one tcp.Block whose receivers share reorder buffers, to the same flows
// each opened by tcp.NewSender at the same instants: on a link that loses
// and reorders data segments, every ACK (time, flow, value) and every
// sender's Stats are the same.
func TestBlockFlowsMatchStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var specs []FlowSpec
	for e := netsim.EntryID(0); e < 8; e++ {
		specs = append(specs, SteadyEntry(e, 8e6, 40, 2*sim.Second, rng)...)
	}
	for i := range specs {
		specs[i].MSS = 500 + 100*(i%9)
	}
	run := func(block bool) (acks []string, stats []tcp.Stats, reordered uint64) {
		s := sim.New(7)
		src, dst := netsim.NewHost(s, "src"), netsim.NewHost(s, "dst")
		l := netsim.Connect(s, src, 0, dst, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9, QueueBytes: 1 << 22})
		l.AB.SetFailure(netsim.FailUniform(3, 0, 0.02))
		chaos := netsim.NewChaos(s, "ab")
		chaos.Reorder, chaos.JitterMax = 0.1, 500*sim.Microsecond
		l.AB.SetChaos(chaos)
		l.BA.SetCapture(func(ev netsim.CaptureEvent) {
			if ev.Kind == netsim.CaptureSend {
				acks = append(acks, fmt.Sprintf("%v %d %d", ev.Time, ev.Pkt.Flow, ev.Pkt.Ack))
			}
		})
		d := NewDriver(s, src, dst, tcp.Config{})
		senders := &d.Senders
		if !block {
			var own []*tcp.Sender
			senders = &own
			sorted := slices.Clone(specs)
			slices.SortStableFunc(sorted, func(a, b FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
			for i, spec := range sorted {
				s.ScheduleAt(spec.Start, func() {
					snd := tcp.NewSender(s, src, dst, netsim.FlowID(i), spec.Entry,
						netsim.IPv4(172, 16, 0, 1), netsim.EntryAddr(spec.Entry, 1),
						spec.Bytes, tcp.Config{RateBps: spec.RateBps, MSS: spec.MSS})
					own = append(own, snd)
					snd.Start()
				})
			}
		} else {
			d.Schedule(specs)
		}
		s.Run(10 * sim.Second)
		for _, snd := range *senders {
			stats = append(stats, snd.Stats)
		}
		return acks, stats, chaos.Stats.Reordered
	}
	acks, stats, reordered := run(true)
	wantAcks, wantStats, _ := run(false)
	var retransmits uint64
	for _, st := range stats {
		retransmits += st.Retransmits
	}
	if len(stats) != len(specs) || reordered < 100 || retransmits < 100 {
		t.Fatalf("%d flows, %d segments reordered, %d retransmitted: want %d flows and ≥ 100 of each", len(stats), reordered, retransmits, len(specs))
	}
	if !slices.Equal(stats, wantStats) {
		t.Errorf("block flows' Stats differ from standalone flows'")
	}
	for i := range max(len(acks), len(wantAcks)) {
		if i >= len(acks) || i >= len(wantAcks) || acks[i] != wantAcks[i] {
			t.Fatalf("block flows send %d ACKs, standalone flows %d; ACK %d differs", len(acks), len(wantAcks), i)
		}
	}
}
