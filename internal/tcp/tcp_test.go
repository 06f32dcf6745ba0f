package tcp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// pair builds two hosts connected by a direct link and returns them with the
// link for failure injection.
func pair(s *sim.Sim, rateBps float64, delay sim.Time) (*netsim.Host, *netsim.Host, *netsim.Link) {
	a := netsim.NewHost(s, "a")
	b := netsim.NewHost(s, "b")
	l := netsim.Connect(s, a, 0, b, 0, netsim.LinkConfig{Delay: delay, RateBps: rateBps, QueueBytes: 1 << 22})
	return a, b, l
}

func TestBulkTransferCompletes(t *testing.T) {
	s := sim.New(1)
	a, b, _ := pair(s, 10e6, 5*sim.Millisecond)
	const total = 200_000
	snd := NewSender(s, a, b, 1, 100, netsim.IPv4(10, 0, 0, 1), netsim.IPv4(10, 0, 0, 2), total, Config{})
	snd.Start()
	s.Run(30 * sim.Second)
	if !snd.Done() {
		t.Fatalf("flow did not complete; acked %d of %d", snd.Stats.BytesAcked, int64(total))
	}
	if snd.Stats.BytesAcked != total {
		t.Errorf("BytesAcked = %d, want %d", snd.Stats.BytesAcked, int64(total))
	}
	if snd.Stats.Retransmits != 0 {
		t.Errorf("lossless transfer had %d retransmits", snd.Stats.Retransmits)
	}
	if snd.Stats.CompletedAt == 0 {
		t.Error("CompletedAt not recorded")
	}
}

func TestPacedFlowDuration(t *testing.T) {
	// A 125 KB flow paced at 1 Mbps should take ≈1 s, like the ≈1 s flows
	// in the paper's synthetic workloads.
	s := sim.New(1)
	a, b, _ := pair(s, 100e6, 5*sim.Millisecond)
	const total = 125_000
	snd := NewSender(s, a, b, 1, 100, 1, 2, total, Config{RateBps: 1e6})
	snd.Start()
	s.Run(30 * sim.Second)
	if !snd.Done() {
		t.Fatal("paced flow did not complete")
	}
	dur := snd.Stats.CompletedAt.Seconds()
	if dur < 0.8 || dur > 1.5 {
		t.Errorf("paced flow took %.2fs, want ≈1s", dur)
	}
}

func TestLossRecoveryUniform(t *testing.T) {
	s := sim.New(1)
	a, b, l := pair(s, 10e6, 5*sim.Millisecond)
	l.AB.SetFailure(netsim.FailUniform(7, 0, 0.05)) // 5% data loss a→b
	const total = 500_000
	snd := NewSender(s, a, b, 1, 100, 1, 2, total, Config{})
	snd.Start()
	s.Run(120 * sim.Second)
	if !snd.Done() {
		t.Fatalf("flow did not recover from 5%% loss; acked %d", snd.Stats.BytesAcked)
	}
	if snd.Stats.Retransmits == 0 {
		t.Error("expected retransmissions under 5% loss")
	}
	if snd.Stats.FastRetransmits == 0 {
		t.Error("expected fast retransmits under 5% loss")
	}
}

func TestBlackholeBacksOffExponentially(t *testing.T) {
	// Under a 100% blackhole the sender must fall back to RTO-driven
	// retransmissions at exponentially increasing intervals — this is the
	// TCP behaviour that makes blackholes *harder* for FANcY than 50%
	// loss (Table 3 discussion).
	s := sim.New(1)
	a, b, l := pair(s, 10e6, 5*sim.Millisecond)
	l.AB.SetFailure(netsim.FailEntries(7, 0, 1.0, 100))
	snd := NewSender(s, a, b, 1, 100, 1, 2, 100_000, Config{})
	snd.Start()
	s.Run(10 * sim.Second)
	if snd.Done() {
		t.Fatal("flow completed through a blackhole")
	}
	if snd.Stats.Timeouts < 4 {
		t.Errorf("timeouts = %d, want ≥4 in 10s with 200ms base RTO", snd.Stats.Timeouts)
	}
	// 200ms + 400 + 800 + 1600 + 3200 = 6.2s for 5 timeouts; with doubling
	// we cannot see more than ~6 timeouts in 10s.
	if snd.Stats.Timeouts > 7 {
		t.Errorf("timeouts = %d: backoff does not seem exponential", snd.Stats.Timeouts)
	}
}

func TestBlackholeHealsAndCompletes(t *testing.T) {
	s := sim.New(1)
	a, b, l := pair(s, 10e6, 5*sim.Millisecond)
	l.AB.SetFailure(netsim.FailEntries(7, 0, 1.0, 100))
	s.ScheduleAt(1*sim.Second, func() { l.AB.SetFailure(nil) })
	snd := NewSender(s, a, b, 1, 100, 1, 2, 50_000, Config{})
	snd.Start()
	s.Run(60 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow did not complete after failure healed")
	}
	if snd.Stats.Timeouts == 0 {
		t.Error("expected at least one timeout during the blackhole")
	}
}

func TestReverseDirectionLossRecovers(t *testing.T) {
	// ACK loss must not stall the connection (cumulative ACKs).
	s := sim.New(1)
	a, b, l := pair(s, 10e6, 5*sim.Millisecond)
	l.BA.SetFailure(netsim.FailUniform(9, 0, 0.2)) // 20% ACK loss
	snd := NewSender(s, a, b, 1, 100, 1, 2, 200_000, Config{})
	snd.Start()
	s.Run(120 * sim.Second)
	if !snd.Done() {
		t.Fatalf("flow did not complete under ACK loss; acked %d", snd.Stats.BytesAcked)
	}
}

func TestThroughputTracksPacingRate(t *testing.T) {
	s := sim.New(1)
	a, b, _ := pair(s, 100e6, 5*sim.Millisecond)
	const rate = 5e6 // 5 Mbps
	const dur = 4    // seconds
	total := int64(rate / 8 * dur)
	snd := NewSender(s, a, b, 1, 100, 1, 2, total, Config{RateBps: rate})
	snd.Start()
	s.Run(30 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow did not complete")
	}
	goodput := float64(snd.Stats.BytesAcked*8) / snd.Stats.CompletedAt.Seconds()
	if goodput < 0.7*rate || goodput > 1.3*rate {
		t.Errorf("goodput = %.0f bps, want ≈%.0f", goodput, float64(rate))
	}
}

func TestMultipleConcurrentFlows(t *testing.T) {
	s := sim.New(1)
	a, b, _ := pair(s, 50e6, 2*sim.Millisecond)
	var snds []*Sender
	for i := 0; i < 20; i++ {
		snd := NewSender(s, a, b, netsim.FlowID(i), netsim.EntryID(i), 1, 2, 50_000,
			Config{RateBps: 1e6})
		snd.Start()
		snds = append(snds, snd)
	}
	s.Run(60 * sim.Second)
	for i, snd := range snds {
		if !snd.Done() {
			t.Errorf("flow %d did not complete", i)
		}
	}
}

func TestSegmentationRespectsTotal(t *testing.T) {
	// A flow whose size is not a multiple of MSS must still complete with
	// a short final segment.
	s := sim.New(1)
	a, b, _ := pair(s, 10e6, sim.Millisecond)
	snd := NewSender(s, a, b, 1, 100, 1, 2, 1460*3+37, Config{})
	snd.Start()
	s.Run(10 * sim.Second)
	if !snd.Done() {
		t.Fatal("odd-sized flow did not complete")
	}
	if snd.Stats.BytesAcked != 1460*3+37 {
		t.Errorf("BytesAcked = %d, want %d", snd.Stats.BytesAcked, 1460*3+37)
	}
}

func TestSlowPacedFlowNeverStalls(t *testing.T) {
	// Regression: a paced flow whose rate releases less than one MSS per
	// ACK round-trip must keep arming its pacing wakeup even when the
	// available bytes sit strictly between segment boundaries; an early
	// version deadlocked here after the first segment.
	s := sim.New(1)
	a, b, _ := pair(s, 10e6, 5*sim.Millisecond)
	for i, total := range []int64{2000, 3333, 14600, 1461} {
		snd := NewSender(s, a, b, netsim.FlowID(i), 100, 1, 2, total,
			Config{RateBps: 16_000 + float64(i)*777}) // awkward rates
		snd.Start()
		s.Run(s.Now() + 60*sim.Second)
		if !snd.Done() {
			t.Fatalf("flow %d (total=%d) stalled: acked=%d outstanding=%d",
				i, total, snd.Stats.BytesAcked, snd.sndNxt-snd.sndUna)
		}
	}
}

func TestTinyFlowSingleSegment(t *testing.T) {
	s := sim.New(1)
	a, b, _ := pair(s, 10e6, sim.Millisecond)
	snd := NewSender(s, a, b, 1, 100, 1, 2, 100, Config{RateBps: 8000})
	snd.Start()
	s.Run(10 * sim.Second)
	if !snd.Done() {
		t.Fatal("tiny flow did not complete")
	}
	if snd.Stats.SegmentsSent != 1 {
		t.Errorf("SegmentsSent = %d, want 1", snd.Stats.SegmentsSent)
	}
}

func TestRTOBackoffCapped(t *testing.T) {
	s := sim.New(1)
	a, b, l := pair(s, 10e6, sim.Millisecond)
	l.AB.SetFailure(netsim.FailEntries(7, 0, 1.0, 100))
	snd := NewSender(s, a, b, 1, 100, 1, 2, 50_000, Config{})
	snd.Start()
	s.Run(600 * sim.Second)
	// Doubling from 200 ms times out at 0.2, 0.6, 1.4, … 51.0 and 102.2 s;
	// capped at 60 s it then fires every minute, 17 times in all by 600 s.
	// Uncapped doubling would give 11.
	if snd.Stats.Timeouts != 17 || snd.rto != maxRTO {
		t.Errorf("timeouts = %d, rto = %v; want 17 and the %v cap", snd.Stats.Timeouts, snd.rto, maxRTO)
	}
}

func TestInitialCwndLimitsBurst(t *testing.T) {
	// With the initial window of ten segments and a long RTT, only ten
	// leave before the first ACK returns.
	s := sim.New(1)
	a, b, l := pair(s, 10e9, 50*sim.Millisecond)
	var firstBurst int
	l.AB.SetCapture(func(ev netsim.CaptureEvent) {
		if ev.Kind == netsim.CaptureSend && ev.Time < 40*sim.Millisecond {
			firstBurst++
		}
	})
	snd := NewSender(s, a, b, 1, 100, 1, 2, 100_000, Config{})
	snd.Start()
	s.Run(5 * sim.Second)
	if firstBurst != initialCwnd {
		t.Errorf("initial burst = %d segments, want %d (initialCwnd)", firstBurst, initialCwnd)
	}
	if !snd.Done() {
		t.Error("flow did not complete")
	}
}

func TestDuplicateDataReACKed(t *testing.T) {
	// Out-of-order and duplicate segments must still elicit cumulative
	// ACKs (the dup-ACK signal fast retransmit relies on). The flow is ten
	// segments, all in the initial window; segment 3 is dropped on the
	// wire, so segments 4–9 reach the receiver out of order and go to its
	// reorder buffer.
	s := sim.New(1)
	a, b, l := pair(s, 10e6, 5*sim.Millisecond)
	const mss, segs = 1460, 10
	// 1500-byte frames serialize in 1.2 ms: segment k arrives at
	// 5 ms + 1.2 ms·(k+1), so this window holds segment 3 (9.8 ms) alone.
	l.AB.SetFailure(netsim.FailEntries(7, 9500*sim.Microsecond, 1.0, 100))
	s.ScheduleAt(10*sim.Millisecond, func() { l.AB.SetFailure(nil) })
	var acks []int64
	l.BA.SetCapture(func(ev netsim.CaptureEvent) {
		if ev.Kind == netsim.CaptureSend {
			acks = append(acks, ev.Pkt.Ack)
		}
	})
	snd := NewSender(s, a, b, 1, 100, 1, 2, mss*segs, Config{})
	snd.Start()
	s.Run(5 * sim.Second)
	if !snd.Done() {
		t.Fatal("flow did not complete")
	}
	if got := l.AB.Stats().FailureDrops; got != 1 {
		t.Fatalf("%d data segments dropped, want exactly 1 (segment 3)", got)
	}
	// Segments 0–2 advance the ACK; each of the six later segments
	// repeats it; the fast retransmission of segment 3 then drains the
	// buffered run and the ACK jumps to the end in one step.
	want := []int64{mss, 2 * mss, 3 * mss}
	for i := 4; i < segs; i++ {
		want = append(want, 3*mss)
	}
	want = append(want, mss*segs)
	if !slices.Equal(acks, want) {
		t.Errorf("ACKs %v, want %v", acks, want)
	}
	if snd.Stats.Retransmits != 1 || snd.Stats.FastRetransmits != 1 || snd.Stats.Timeouts != 0 {
		t.Errorf("retransmits %d (fast %d, timeouts %d), want one fast retransmit",
			snd.Stats.Retransmits, snd.Stats.FastRetransmits, snd.Stats.Timeouts)
	}
}

// A connection is one allocation holding both ends: the handlers and the
// timer Actors are the ends themselves, and the receiver's reorder buffer
// waits for the first out-of-order segment.
func TestNewSenderAllocatesOneObject(t *testing.T) {
	s := sim.New(1)
	a, b, _ := pair(s, 10e6, sim.Millisecond)
	flow := netsim.FlowID(0)
	newSender := func() {
		NewSender(s, a, b, flow, 100, 1, 2, 1000, Config{})
		flow++
	}
	// Grow the hosts' handler tables to 1000 flows first, so their growth is
	// not counted; unbinding keeps a table's length.
	for i := 0; i < 1000; i++ {
		newSender()
	}
	for i := 0; i < 1000; i++ {
		a.Bind(netsim.FlowID(i), nil)
		b.Bind(netsim.FlowID(i), nil)
	}
	flow = 0
	if avg := testing.AllocsPerRun(100, newSender); avg > 1 {
		t.Errorf("NewSender allocates %.1f objects, want ≤ 1 (the conn)", avg)
	}
}

// mapReceiver is the receiver's reorder buffer as it was before it became a
// sorted run: a map from seq to length, drained by exact-key lookups at the
// next expected byte. handle returns the ACK the receiver sends, if any.
type mapReceiver struct {
	rcvNxt int64
	segs   map[int64]int
}

func (r *mapReceiver) handle(seq int64, n int) (int64, bool) {
	if n == 0 {
		return 0, false
	}
	if seq == r.rcvNxt {
		r.rcvNxt += int64(n)
		for {
			l, ok := r.segs[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.segs, r.rcvNxt)
			r.rcvNxt += int64(l)
		}
	} else if seq > r.rcvNxt {
		if r.segs == nil {
			r.segs = make(map[int64]int)
		}
		r.segs[seq] = n
	}
	return r.rcvNxt, true
}

// TestReorderRunMatchesMapReference holds the sorted reorder run to the map
// it replaced: random arrival orders of an MSS-aligned flow, with duplicates
// and retransmissions of delivered segments, give the same ACK sequence. Half
// the trials also send segments cut at another length (some spanning two or
// three segments), so a buffered segment can be replaced at its seq or passed
// over by the in-order point.
func TestReorderRunMatchesMapReference(t *testing.T) {
	const mss = 1460
	s := sim.New(1)
	_, b, l := pair(s, 10e9, sim.Millisecond)
	var acks []int64
	l.BA.SetCapture(func(ev netsim.CaptureEvent) {
		if ev.Kind == netsim.CaptureSend {
			acks = append(acks, ev.Pkt.Ack)
		}
	})
	for trial := 0; trial < 500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(30)
		total := int64(n*mss - rng.Intn(mss)) // a short last segment
		segment := func(k int) (int64, int) {
			seq := int64(k * mss)
			return seq, int(min64(mss, total-seq))
		}
		type arrival struct {
			seq int64
			len int
		}
		var arrivals []arrival
		for _, k := range rng.Perm(n) {
			seq, l := segment(k)
			arrivals = append(arrivals, arrival{seq, l})
			for rng.Intn(4) == 0 { // a duplicate
				seq, l := segment(rng.Intn(n))
				arrivals = append(arrivals, arrival{seq, l})
			}
			if trial%2 == 1 && rng.Intn(6) == 0 { // a segment cut at another length
				arrivals = append(arrivals, arrival{seq, []int{rng.Intn(2 * mss), 2 * mss, 3 * mss}[rng.Intn(3)]})
			}
		}
		for i := rng.Intn(5); i > 0; i-- { // retransmissions of delivered data
			seq, l := segment(rng.Intn(n))
			arrivals = append(arrivals, arrival{seq, l})
		}

		rcv := &receiver{host: b, flow: 1, src: 2, dst: 1}
		ref := &mapReceiver{}
		var want []int64
		acks = acks[:0]
		for _, a := range arrivals {
			rcv.HandlePacket(&netsim.Packet{Seq: a.seq, Len: a.len})
			if ack, ok := ref.handle(a.seq, a.len); ok {
				want = append(want, ack)
			}
		}
		s.Run(0)
		if !slices.Equal(acks, want) {
			t.Fatalf("trial %d, arrivals %v: ACKs %v, reference %v", trial, arrivals, acks, want)
		}
	}
}

// TestReorderRunAllocatesOnFirstGap pins the reorder run's one allocation: a
// receiver allocates nothing until its first out-of-order segment, then one
// object that holds up to 8 buffered segments without growing.
func TestReorderRunAllocatesOnFirstGap(t *testing.T) {
	const mss, runs = 1460, 100
	s := sim.New(1)
	_, b, _ := pair(s, 10e9, sim.Millisecond)
	var data [10]netsim.Packet
	for k := range data {
		data[k] = netsim.Packet{Seq: int64(k * mss), Len: mss}
	}
	// Each step starts a new connection's receiver in the same memory, so
	// only the reorder run can allocate.
	var rcv receiver
	fresh := func() *receiver {
		rcv = receiver{host: b, flow: 1, src: 2, dst: 1}
		return &rcv
	}
	// Each step ends with the ACKs delivered, so they return to b's pool.
	inOrder := func() {
		r := fresh()
		for k := range data {
			r.HandlePacket(&data[k])
		}
		s.Run(0)
	}
	firstGap := func() {
		fresh().HandlePacket(&data[1])
		s.Run(0)
	}
	eightGaps := func() {
		r := fresh()
		for _, k := range []int{8, 2, 6, 4, 1, 7, 3, 5} {
			r.HandlePacket(&data[k])
		}
		if len(r.segs) != 8 {
			t.Fatalf("%d segments buffered, want 8", len(r.segs))
		}
		r.HandlePacket(&data[0])
		if r.rcvNxt != 9*mss || len(r.segs) != 0 {
			t.Fatalf("after the hole: rcvNxt %d with %d buffered, want %d and 0", r.rcvNxt, len(r.segs), 9*mss)
		}
		s.Run(0)
	}
	for i := 0; i < 3; i++ { // warm b's packet pool and the event pool
		eightGaps()
	}
	if avg := testing.AllocsPerRun(runs, inOrder); avg != 0 {
		t.Errorf("an in-order flow allocates %.2f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(runs, firstGap); avg != 1 {
		t.Errorf("the first out-of-order segment allocates %.2f objects, want 1", avg)
	}
	if avg := testing.AllocsPerRun(runs, eightGaps); avg != 1 {
		t.Errorf("8 buffered out-of-order segments allocate %.2f objects, want 1", avg)
	}
}

// TestBlockSecondGapDoesNotAllocate pins the reorder buffers a block's
// receivers share: a receiver's first out-of-order segment takes a buffer
// from the block, and once the gap fills the buffer goes back, so the next
// gap — in the same flow or another of the block — allocates nothing.
func TestBlockSecondGapDoesNotAllocate(t *testing.T) {
	const mss, runs = 1460, 100
	s := sim.New(1)
	_, b, _ := pair(s, 10e9, sim.Millisecond)
	var gap, fill netsim.Packet
	// episode opens a gap one segment past r's next byte and fills it.
	episode := func(r *receiver) {
		next := r.rcvNxt
		gap, fill = netsim.Packet{Seq: next + mss, Len: mss}, netsim.Packet{Seq: next, Len: mss}
		r.HandlePacket(&gap)
		if len(r.segs) != 1 {
			t.Fatalf("%d segments buffered after the gap, want 1", len(r.segs))
		}
		r.HandlePacket(&fill)
		if r.rcvNxt != next+2*mss || r.segs != nil {
			t.Fatalf("after the fill: rcvNxt %d, buffer %v; want %d and none held", r.rcvNxt, r.segs, next+2*mss)
		}
		s.Run(0) // deliver the ACKs, so they return to b's pool
	}
	// Each step starts a new block with two receivers in the same memory.
	var blk Block
	var rcv [2]receiver
	fresh := func() {
		blk = Block{}
		for i := range rcv {
			rcv[i] = receiver{host: b, flow: netsim.FlowID(i), src: 2, dst: 1, blk: &blk}
		}
	}
	one := func() { fresh(); episode(&rcv[0]) }
	two := func() { fresh(); episode(&rcv[0]); episode(&rcv[1]) }
	for i := 0; i < 3; i++ { // warm b's packet pool and the event pool
		two()
	}
	first, both := testing.AllocsPerRun(runs, one), testing.AllocsPerRun(runs, two)
	if first == 0 || both != first {
		t.Errorf("a block's first gap allocates %.2f objects and its first two %.2f; want the second to add 0", first, both)
	}
	i := 0
	steady := func() { episode(&rcv[i%2]); i++ }
	if avg := testing.AllocsPerRun(runs, steady); avg != 0 {
		t.Errorf("a warmed block's gaps allocate %.2f objects, want 0", avg)
	}
}

// TestBlockGapsAllocateByChunk pins the block's chunked reorder buffers:
// n receivers of one block, each holding a gap at the same moment, allocate
// one object per reorderChunk of them, not one each.
func TestBlockGapsAllocateByChunk(t *testing.T) {
	const mss, runs, n = 1460, 20, 2*reorderChunk + 3
	s := sim.New(1)
	_, b, _ := pair(s, 10e9, sim.Millisecond)
	gap := netsim.Packet{Seq: mss, Len: mss}
	// Each step starts a new block of n receivers in the same memory and
	// opens a gap in every one of them.
	var blk Block
	rcv := make([]receiver, n)
	gaps := func() {
		blk = Block{flows: n}
		for i := range rcv {
			rcv[i] = receiver{host: b, flow: netsim.FlowID(i), src: 2, dst: 1, blk: &blk}
			rcv[i].HandlePacket(&gap)
		}
		s.Run(0) // deliver the ACKs, so they return to b's pool
	}
	gaps() // warm b's packet pool and the event pool
	want := float64((n + reorderChunk - 1) / reorderChunk)
	if avg := testing.AllocsPerRun(runs, gaps); avg != want {
		t.Errorf("%d gaps open at once allocate %.2f objects, want %.0f (one per %d-slot chunk)", n, avg, want, reorderChunk)
	}
}

// TestBlockFlowsMatchStandaloneAcrossChunks holds flows opened on one Block
// to the same flows opened by NewSender, where the block cuts buffers from
// more than one chunk and some flows outgrow their slot: every ACK (time,
// flow, value) and every sender's Stats are the same. A slot cut without
// its capacity bound lets an outgrown buffer write into its neighbour's,
// and fails here.
func TestBlockFlowsMatchStandaloneAcrossChunks(t *testing.T) {
	const flows = 600
	run := func(block bool) (acks []string, stats []Stats, blk *Block) {
		s := sim.New(3)
		// A queue deep enough for every flow's first window.
		a, b := netsim.NewHost(s, "a"), netsim.NewHost(s, "b")
		l := netsim.Connect(s, a, 0, b, 0, netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9, QueueBytes: 1 << 24})
		l.AB.SetFailure(netsim.FailUniform(5, 0, 0.1))
		chaos := netsim.NewChaos(s, "ab")
		chaos.Reorder, chaos.JitterMax = 0.2, 500*sim.Microsecond
		l.AB.SetChaos(chaos)
		l.BA.SetCapture(func(ev netsim.CaptureEvent) {
			if ev.Kind == netsim.CaptureSend {
				acks = append(acks, fmt.Sprintf("%v %d %d", ev.Time, ev.Pkt.Flow, ev.Pkt.Ack))
			}
		})
		open := NewSender
		if block {
			blk = NewBlock(flows)
			open = blk.NewSender
		}
		snds := make([]*Sender, flows)
		for i := range snds {
			snds[i] = open(s, a, b, netsim.FlowID(i), netsim.EntryID(i), 1, 2, int64(20_000+500*(i%7)), Config{MSS: 1000})
			snds[i].Start()
		}
		s.Run(30 * sim.Second)
		for _, snd := range snds {
			if !snd.Done() {
				t.Fatalf("flow %d did not complete", snd.flow)
			}
			stats = append(stats, snd.Stats)
		}
		return acks, stats, blk
	}
	acks, stats, blk := run(true)
	wantAcks, wantStats, _ := run(false)
	// Every buffer the block made is back among its spares: more than one
	// chunk's worth means more gaps were open at once than a chunk holds.
	outgrown := 0
	for _, b := range blk.spare {
		if cap(b) > reorderSlot {
			outgrown++
		}
	}
	t.Logf("%d gaps open at once, %d buffers outgrew their slot", len(blk.spare), outgrown)
	if len(blk.spare) <= reorderChunk || outgrown == 0 {
		t.Fatalf("%d gaps open at once, %d buffers outgrew their slot: want > %d and ≥ 1", len(blk.spare), outgrown, reorderChunk)
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

func BenchmarkBulkTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		a, dst, _ := pair(s, 100e6, sim.Millisecond)
		snd := NewSender(s, a, dst, 1, 100, 1, 2, 1_000_000, Config{})
		snd.Start()
		s.Run(0)
		if !snd.Done() {
			b.Fatal("incomplete")
		}
	}
}

// TestLifecycleSteadyStateDoesNotAllocate pins a bulk flow's steady state:
// data segments and ACKs come from the hosts' packet pools and go back to
// them on delivery, and the RTO timer is re-armed by value with a bound
// callback, so a segment and its ACK allocate nothing. The flow is paced at
// half the line rate, so it loses nothing and its in-flight set — which a
// growing cwnd would otherwise keep enlarging — is constant while measured;
// pacing also puts the second timer (payTimer) on the measured path.
func TestLifecycleSteadyStateDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	a, b, l := pair(s, 100e6, sim.Millisecond)
	snd := NewSender(s, a, b, 1, 100, 1, 2, 1<<40, Config{RateBps: 50e6})
	snd.Start()
	s.Run(2 * sim.Second) // warm: event pool, packet pools, full window
	if snd.Done() || snd.Stats.Retransmits != 0 {
		t.Fatalf("warm-up was not a clean bulk transfer: done=%v retransmits=%d", snd.Done(), snd.Stats.Retransmits)
	}
	before := snd.Stats.SegmentsSent
	step := func() { s.Run(s.Now() + 10*sim.Millisecond) }
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("10 ms of steady-state bulk transfer allocates %.2f objects, want 0", avg)
	}
	segs := snd.Stats.SegmentsSent - before
	if segs < 4000 || l.BA.Stats().Delivered == 0 {
		t.Fatalf("only %d segments sent while measuring", segs)
	}
	if a.Pool().Reuses < segs || b.Pool().Reuses < segs {
		t.Errorf("pools reused %d segments and %d ACKs of %d sent", a.Pool().Reuses, b.Pool().Reuses, segs)
	}
}
