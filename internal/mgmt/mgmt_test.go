package mgmt

import (
	"fmt"
	"maps"
	"testing"

	"fancy/internal/sim"
)

type rig struct {
	s   *sim.Sim
	net *Network
	srv *Server
	cl  *Client

	got  []uint64 // delivered (unique) report seqs, in delivery order
	vals []any
}

func newRig(t *testing.T, seed int64, cfg Config) *rig {
	t.Helper()
	r := &rig{s: sim.New(seed)}
	r.net = NewNetwork(r.s, cfg)
	r.srv = NewServer(r.s, r.net, "corr")
	r.srv.OnReport = func(from string, seq uint64, payload any) {
		if from != "sw" {
			t.Fatalf("report from %q", from)
		}
		r.got = append(r.got, seq)
		r.vals = append(r.vals, payload)
	}
	r.cl = NewClient(r.s, r.net, "sw", "corr")
	return r
}

func TestPerfectChannelDeliversInOrder(t *testing.T) {
	r := newRig(t, 1, Config{})
	for i := 0; i < 10; i++ {
		r.cl.Send(i)
	}
	r.s.Run(sim.Second)
	if len(r.got) != 10 {
		t.Fatalf("delivered %d reports, want 10", len(r.got))
	}
	for i, seq := range r.got {
		if seq != uint64(i+1) || r.vals[i] != i {
			t.Fatalf("report %d: seq=%d val=%v", i, seq, r.vals[i])
		}
	}
	if r.srv.Holes() != 0 {
		t.Fatalf("holes=%d on a perfect channel", r.srv.Holes())
	}
	if !r.srv.Alive("sw") {
		t.Fatal("client not alive despite heartbeats")
	}
}

func TestLossyChannelRetriesToCompletion(t *testing.T) {
	r := newRig(t, 7, Config{Loss: 0.3, Duplicate: 0.1, Jitter: sim.Millisecond})
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		r.s.After(sim.Time(i)*2*sim.Millisecond, func() { r.cl.Send(i) })
	}
	r.s.Run(5 * sim.Second)
	if len(r.got) != n {
		t.Fatalf("delivered %d unique reports, want %d (retries must recover 30%% loss)", len(r.got), n)
	}
	if r.cl.Stats.Retries == 0 {
		t.Fatal("no retries under 30% loss")
	}
	if r.srv.Stats.Duplicates == 0 {
		t.Fatal("no duplicates suppressed despite Duplicate=0.1 and retransmissions")
	}
	if r.srv.Holes() != 0 {
		t.Fatalf("holes=%d, want 0 after retries", r.srv.Holes())
	}
}

// script is a fault hook with two scripted fates: it drops the first
// transmission of report dropSeq and delivers the first heartbeat ack a
// second time dupAfter later. Every other datagram is delivered untouched,
// whatever the configured weather; offered logs what Fate was asked about.
type script struct {
	t        *testing.T
	cfg      Config
	dropSeq  uint64
	dupAfter sim.Time
	dropped  bool
	dupSeq   uint64 // the duplicated ack's probe id, 0 until chosen
	offered  []Dgram
}

func (h *script) Fate(d Dgram, loss float64, jitter sim.Time) (bool, sim.Time, sim.Time) {
	if loss != h.cfg.Loss || jitter != h.cfg.Jitter { //lint:allow floateq the hook must see the configured value itself
		h.t.Errorf("Fate saw loss %v jitter %v, want the configured %v, %v", loss, jitter, h.cfg.Loss, h.cfg.Jitter)
	}
	h.offered = append(h.offered, d)
	switch {
	case d.Kind == DgramReport && d.Seq == h.dropSeq && !h.dropped:
		h.dropped = true
		return true, 0, 0
	case d.Kind == DgramHeartbeatAck && h.dupSeq == 0:
		h.dupSeq = d.Seq
		return false, 0, h.dupAfter
	}
	return false, 0, 0
}

// TestFaultHookScriptsOneReportAndOneAck drives the protocol through the
// fault hook over a channel configured to lose 30 % of datagrams: the hook
// drops only the first transmission of report 4 and duplicates only the
// first heartbeat ack, its copy landing after the next probe's ack. The
// client must retry exactly once, the server pass every report up once and
// in order, the stale ack copy change nothing, and every other datagram
// arrive exactly as offered.
func TestFaultHookScriptsOneReportAndOneAck(t *testing.T) {
	cfg := Config{Loss: 0.3, Jitter: 2 * sim.Millisecond}
	r := newRig(t, 1, cfg)
	h := &script{t: t, cfg: cfg, dropSeq: 4, dupAfter: HeartbeatInterval + sim.Millisecond}
	r.net.SetFaultHook(h)
	type key struct {
		kind DgramKind
		to   string
		seq  uint64
	}
	delivered := map[key]int{}
	log := func(name string, handle func(Dgram)) {
		r.net.Register(name, func(d Dgram) {
			delivered[key{d.Kind, d.To, d.Seq}]++
			if d.Kind == DgramHeartbeatAck && d.Seq == h.dupSeq && delivered[key{d.Kind, d.To, d.Seq}] == 2 {
				if before := r.cl.lastProbeAck; before <= d.Seq {
					t.Errorf("the ack copy of probe %d landed before the next probe's ack (%d)", d.Seq, before)
				}
			}
			handle(d)
		})
	}
	log("sw", r.cl.onDgram)
	log("corr", r.srv.onDgram)
	const n = 8
	for i := 0; i < n; i++ {
		r.s.After(sim.Millisecond+sim.Time(i)*10*sim.Millisecond, func() { r.cl.Send(i) })
	}
	r.s.Run(205 * sim.Millisecond) // between heartbeats: nothing in flight

	if r.cl.Stats.Retries != 1 || r.cl.Stats.ProbeRetries != 0 || r.srv.Stats.Duplicates != 0 {
		t.Fatalf("client %+v, server %+v: want exactly one report retry and nothing else", r.cl.Stats, r.srv.Stats)
	}
	for i, seq := range r.got {
		if seq != uint64(i+1) || r.vals[i] != i {
			t.Fatalf("server passed up %v, want 1..%d once each, in order", r.got, n)
		}
	}
	if len(r.got) != n {
		t.Fatalf("server passed up %d reports, want %d", len(r.got), n)
	}
	if st := r.net.Stats; st.Lost != 1 || st.Duplicated != 1 || st.PartitionDrops != 0 || st.Sent != uint64(len(h.offered)) {
		t.Fatalf("network %+v over %d offered datagrams: want exactly one loss and one duplicate", st, len(h.offered))
	}
	// No other fate changed: what arrived is what was offered, less the
	// dropped report, plus the ack copy.
	want := map[key]int{}
	for _, d := range h.offered {
		want[key{d.Kind, d.To, d.Seq}]++
	}
	want[key{DgramReport, "corr", h.dropSeq}]--
	want[key{DgramHeartbeatAck, "sw", h.dupSeq}]++
	if !maps.Equal(delivered, want) {
		t.Errorf("delivered %v\nwant %v", delivered, want)
	}
	if want[key{DgramReport, "corr", h.dropSeq}] != 1 || !r.cl.Online() || !r.srv.Alive("sw") {
		t.Fatal("the scripted report was not retransmitted exactly once, or the pair lost touch")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (string, NetStats) {
		s := sim.New(99)
		net := NewNetwork(s, Config{Loss: 0.25, Duplicate: 0.2, Jitter: 2 * sim.Millisecond})
		srv := NewServer(s, net, "corr")
		var log string
		srv.OnReport = func(from string, seq uint64, payload any) {
			log += fmt.Sprintf("%v/%d;", s.Now(), seq)
		}
		cl := NewClient(s, net, "sw", "corr")
		for i := 0; i < 30; i++ {
			i := i
			s.After(sim.Time(i)*sim.Millisecond, func() { cl.Send(i) })
		}
		s.Run(2 * sim.Second)
		return log, net.Stats
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("non-deterministic replay:\n%s\nvs\n%s\n%+v vs %+v", l1, l2, s1, s2)
	}
}

// TestPairStreamPinned pins the generator behind every management-plane
// draw: the first outputs of the a→b stream under sim seed 1. Every golden
// with a lossy or jittered management network replays these streams, so a
// change of generator, seeding or label fails here first, by name.
func TestPairStreamPinned(t *testing.T) {
	r := pairStream(sim.New(1), "a", "b")
	floats := []float64{0.0497901465291698, 0.22128951013798825, 0.2616464156609205, 0.5707541472072715,
		0.6984620582435794, 0.2508789814460042, 0.13668024837135762, 0.7823307475924977}
	for i, want := range floats {
		if got := r.Float64(); got != want {
			t.Fatalf("Float64 #%d = %v, want %v", i, got, want)
		}
	}
	ints := []int64{781381, 209136, 1350260, 734922, 1785326, 1589949, 617432, 123831}
	for i, want := range ints {
		if got := r.Int64N(int64(dupDelayMax)); got != want {
			t.Fatalf("Int64N #%d = %d, want %d", i, got, want)
		}
	}
}

func TestPartitionOfflineSpoolAndHeal(t *testing.T) {
	r := newRig(t, 3, Config{})
	var transitions []bool
	r.cl.OnOnline = func(on bool) { transitions = append(transitions, on) }

	r.s.After(100*sim.Millisecond, func() { r.net.Partition("sw") })
	for i := 0; i < 20; i++ {
		i := i
		r.s.After(sim.Time(100+i*10)*sim.Millisecond, func() { r.cl.Send(i) })
	}
	r.s.After(400*sim.Millisecond, func() {
		if r.cl.Online() {
			t.Error("client still online mid-partition")
		}
	})
	r.s.After(500*sim.Millisecond, func() { r.net.Heal("sw") })
	r.s.Run(2 * sim.Second)

	if len(transitions) < 2 || transitions[0] != false || transitions[len(transitions)-1] != true {
		t.Fatalf("transitions %v, want offline then online", transitions)
	}
	if len(r.got) != 20 {
		t.Fatalf("delivered %d reports after heal, want all 20 (spool replay)", len(r.got))
	}
	for i := 1; i < len(r.got); i++ {
		if r.got[i] <= r.got[i-1] {
			t.Fatalf("spool replay out of order: %v", r.got)
		}
	}
	if r.cl.Stats.Spooled == 0 {
		t.Fatal("nothing spooled during the partition")
	}
}

func TestSpoolOverflowCreatesHoles(t *testing.T) {
	r := newRig(t, 5, Config{})
	r.net.Partition("sw")
	// Force offline first so sends spool directly.
	r.s.After(100*sim.Millisecond, func() {
		for i := 0; i < spoolLimit+6; i++ {
			r.cl.Send(i)
		}
	})
	r.s.After(200*sim.Millisecond, func() { r.net.Heal("sw") })
	r.s.Run(sim.Second)
	if r.cl.Stats.SpoolDrops != 6 {
		t.Fatalf("SpoolDrops=%d, want 6", r.cl.Stats.SpoolDrops)
	}
	if len(r.got) != spoolLimit {
		t.Fatalf("delivered %d, want the %d surviving reports", len(r.got), spoolLimit)
	}
	for i, v := range r.vals {
		if v != i+6 {
			t.Fatalf("report %d carries %v, want %d: the oldest six go", i, v, i+6)
		}
	}
	if h := r.srv.Holes(); h != 6 {
		t.Fatalf("server sees %d holes, want 6", h)
	}
}

func TestCallRPCAndUnavailable(t *testing.T) {
	r := newRig(t, 11, Config{Loss: 0.3})
	r.cl.OnCall = func(req any) (any, error) {
		if req.(string) == "boom" {
			return nil, fmt.Errorf("no such path")
		}
		return "value:" + req.(string), nil
	}
	okCalls, errCalls, unavail := 0, 0, 0
	r.s.After(0, func() {
		r.srv.Call("sw", "x", func(v any, err error) {
			if err != nil || v != "value:x" {
				t.Errorf("call: v=%v err=%v", v, err)
			}
			okCalls++
		})
		r.srv.Call("sw", "boom", func(v any, err error) {
			if err == nil || err.Error() != "no such path" {
				t.Errorf("boom call: v=%v err=%v", v, err)
			}
			errCalls++
		})
	})
	// A partitioned peer yields ErrUnavailable after bounded attempts.
	r.s.After(300*sim.Millisecond, func() {
		r.net.Partition("sw")
		r.srv.Call("sw", "y", func(v any, err error) {
			if err != ErrUnavailable {
				t.Errorf("partitioned call: err=%v, want ErrUnavailable", err)
			}
			unavail++
		})
	})
	r.s.Run(3 * sim.Second)
	if okCalls != 1 || errCalls != 1 || unavail != 1 {
		t.Fatalf("callbacks ok=%d err=%d unavail=%d, want 1/1/1 (exactly once)", okCalls, errCalls, unavail)
	}
}

func TestCrashWindowBehavesLikePartition(t *testing.T) {
	r := newRig(t, 13, Config{})
	r.s.After(100*sim.Millisecond, func() { r.srv.SetAccepting(false) })
	for i := 0; i < 10; i++ {
		i := i
		r.s.After(sim.Time(110+i*10)*sim.Millisecond, func() { r.cl.Send(i) })
	}
	r.s.After(400*sim.Millisecond, func() {
		if r.cl.Online() {
			t.Error("client did not notice the crashed correlator")
		}
		r.srv.SetAccepting(true)
	})
	r.s.Run(2 * sim.Second)
	if len(r.got) != 10 {
		t.Fatalf("delivered %d reports after restart, want all 10", len(r.got))
	}
	if !r.cl.Online() {
		t.Fatal("client never recovered after restart")
	}
}

func TestSeqCheckpointRestoreDedups(t *testing.T) {
	r := newRig(t, 17, Config{})
	for i := 0; i < 5; i++ {
		r.cl.Send(i)
	}
	r.s.Run(50 * sim.Millisecond)
	cp := r.srv.SeqCheckpoint(nil)
	if cp["sw"].Contig != 5 {
		t.Fatalf("checkpoint contig=%d, want 5", cp["sw"].Contig)
	}
	r.srv.RestoreSeq(cp)
	// Replay of an already-consumed seq must be suppressed.
	before := len(r.got)
	r.net.Send(Dgram{From: "sw", To: "corr", Kind: DgramReport, Seq: 3, Payload: "dup"})
	r.s.Run(100 * sim.Millisecond)
	if len(r.got) != before {
		t.Fatal("restored server re-delivered a checkpointed seq")
	}
	if r.srv.Stats.Duplicates == 0 {
		t.Fatal("duplicate not counted")
	}
}
