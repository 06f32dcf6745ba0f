package mgmt

// Datagram-lifecycle tests: an in-flight record is the network's, goes back
// on its free list before the handler runs, and is filled again by the next
// Send — so what a handler was handed must not depend on who re-used the
// record since, and a warmed heartbeat exchange must not allocate.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fancy/internal/sim"
)

// TestHeartbeatIntervalDoesNotAllocate pins the management plane's steady
// state: one heartbeat interval of a warmed client/server pair — probe, ack,
// the probe's ack-timeout wait and the heartbeat re-arm, retries included on
// the lossy channel — performs no heap allocations.
func TestHeartbeatIntervalDoesNotAllocate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"perfect": {},
		"lossy":   {Loss: 0.02, Duplicate: 0.01, Jitter: sim.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 1, cfg)
			// Warm up: the phi window fills, and the free lists grow past
			// any high-water mark the measured run can reach.
			r.s.Run(5 * sim.Second)
			prime(r, 32)
			before, sent := r.cl.Stats, r.net.Stats.Sent
			// AllocsPerRun rounds its average down, so count a thousand
			// intervals as one run: a single object anywhere shows.
			const intervals = 1000
			run := func() { r.s.Run(r.s.Now() + intervals*HeartbeatInterval) }
			if total := testing.AllocsPerRun(1, run); total != 0 {
				t.Errorf("%d heartbeat intervals allocate %.0f objects, want 0", intervals, total)
			}
			if got := r.cl.Stats.Heartbeats - before.Heartbeats; got < intervals {
				t.Errorf("%d heartbeats in %d intervals", got, intervals)
			}
			if r.net.Stats.Sent-sent < 2*intervals {
				t.Error("fewer than a probe and an ack per interval were sent")
			}
			if !r.cl.Online() || !r.srv.Alive("sw") {
				t.Error("the pair lost touch")
			}
			if cfg.Loss > 0 && (r.cl.Stats.ProbeRetries == before.ProbeRetries || r.net.Stats.Duplicated == 0) {
				t.Errorf("lossy channel exercised no retry or duplicate: %+v, %+v", r.cl.Stats, r.net.Stats)
			}
		})
	}
}

// prime has the client send k stale probes at once and lets them settle: k
// heartbeats and then k acks in flight together, k probe waits pending. Every
// free list the steady state draws on — in-flight records, sim events and heap
// slots, probe waits — then holds more records than a lossy channel keeps busy
// at once. Without it, a burst of retries and duplicates can set a new
// high-water mark seconds into the run, and whether one lands in the measured
// run depends on the draw stream, not on the code under test.
func prime(r *rig, k int) {
	for range k {
		r.cl.probe(r.cl.lastProbeAck, 0)
	}
	r.s.Run(r.s.Now() + HeartbeatInterval)
}

// fates is a FaultHook written as a function of the datagram alone.
type fates func(Dgram) (drop bool, extra, dupAfter sim.Time)

func (f fates) Fate(d Dgram, _ float64, _ sim.Time) (bool, sim.Time, sim.Time) { return f(d) }

// TestCallDoesNotAllocate pins the RPC steady state: once the free lists
// have grown, a call round trip — request, answer, the attempt timer, the
// callback — and the heartbeats around it perform no heap allocations,
// retries included on the lossy channel.
func TestCallDoesNotAllocate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"perfect": {},
		"lossy":   {Loss: 0.02, Duplicate: 0.01, Jitter: sim.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 1, cfg)
			r.cl.OnCall = func(req any) (any, error) { return req, nil }
			var req any = "poll"
			answered := 0
			cb := func(v any, err error) {
				if err == nil && v == req {
					answered++
				}
			}
			// Warm up like prime, for calls too: k calls in flight at once
			// leave k records on the server's free list.
			r.s.Run(5 * sim.Second)
			prime(r, 32)
			for range 32 {
				r.srv.Call("sw", req, cb)
			}
			r.s.Run(r.s.Now() + sim.Second)
			answered = 0
			const calls = 1000
			run := func() {
				for range calls {
					r.srv.Call("sw", req, cb)
					r.s.Run(r.s.Now() + HeartbeatInterval)
				}
			}
			if total := testing.AllocsPerRun(1, run); total != 0 {
				t.Errorf("%d call round trips allocate %.0f objects, want 0", calls, total)
			}
			// A lossy channel may leave the last few retrying.
			if answered < calls-int(cfg.Loss*calls) {
				t.Errorf("%d of %d calls answered", answered, calls)
			}
		})
	}
}

// TestCallRecordRecycled walks a call record through its three ends. Each
// end puts the record back before the callback runs, and the next Call
// takes it again under a new id, so whatever still arrives for the old id —
// a duplicated answer, the answer to an abandoned call — must find nothing.
func TestCallRecordRecycled(t *testing.T) {
	r := newRig(t, 1, Config{})
	r.cl.OnCall = func(req any) (any, error) { return req, nil }
	// Duplicate every answer to the first call half a millisecond late:
	// the copy lands while the call that re-used the record is pending.
	r.net.SetFaultHook(fates(func(d Dgram) (bool, sim.Time, sim.Time) {
		if d.Kind == DgramCallResp && d.Seq == 1 {
			return false, 0, 500 * sim.Microsecond
		}
		return false, 0, 0
	}))
	got := map[string][]any{}
	record := func(name string) func(any, error) {
		return func(v any, err error) {
			if err != nil {
				v = err
			}
			got[name] = append(got[name], v)
		}
	}

	// A response: the first call's record is free before its callback runs,
	// and the second call, issued from that callback, re-uses it.
	r.srv.Call("sw", "first", func(v any, err error) {
		record("first")(v, err)
		if len(r.srv.free) != 1 {
			t.Errorf("%d free records inside the callback, want the answered one", len(r.srv.free))
		}
		r.srv.Call("sw", "second", record("second"))
		if len(r.srv.free) != 0 {
			t.Error("the call from the callback did not re-use the answered record")
		}
	})
	r.s.Run(r.s.Now() + 10*sim.Millisecond)
	if len(got["first"]) != 1 || len(got["second"]) != 1 || got["second"][0] != "second" {
		t.Fatalf("callbacks %v: the late copy of the first answer reached the second call", got)
	}
	if r.net.Stats.Duplicated != 1 {
		t.Fatalf("%+v: the first answer was not duplicated", r.net.Stats)
	}

	// SetAccepting(false): the abandoned call's answer arrives at a server
	// accepting again and finds nothing; its timer never fires.
	r.srv.Call("sw", "abandoned", record("abandoned"))
	r.srv.SetAccepting(false)
	r.srv.SetAccepting(true)
	r.srv.Call("sw", "after", record("after"))
	r.s.Run(r.s.Now() + sim.Second)
	if len(got["abandoned"]) != 0 || len(got["after"]) != 1 || got["after"][0] != "after" {
		t.Fatalf("callbacks %v: the abandoned call answered", got)
	}

	// Exhaustion: one callback, ErrUnavailable, and the record back.
	r.net.Partition("sw")
	r.srv.Call("sw", "lost", record("lost"))
	r.s.Run(r.s.Now() + 2*sim.Second)
	if len(got["lost"]) != 1 || got["lost"][0] != ErrUnavailable || r.srv.Stats.CallFails != 1 {
		t.Fatalf("callbacks %v, %d call fails: want one ErrUnavailable", got, r.srv.Stats.CallFails)
	}
	if len(r.srv.calls) != 0 || len(r.srv.free) != 1 {
		t.Fatalf("%d calls pending, %d records free; want 0 and the one every call re-used", len(r.srv.calls), len(r.srv.free))
	}
	for _, pc := range r.srv.free {
		if pc.req != nil || pc.cb != nil || pc.timer.Active() {
			t.Fatalf("a free record still holds %v / a callback / a timer", pc.req)
		}
	}
}

// TestSeqCheckpointReusesDst: a refill keeps the destination map and each
// client's Above array, drops clients the server no longer tracks, comes
// back sorted, and leaves a frame encoded from the previous fill alone.
func TestSeqCheckpointReusesDst(t *testing.T) {
	r := newRig(t, 1, Config{})
	report := func(from string, seqs ...uint64) {
		for _, s := range seqs {
			r.srv.onDgram(Dgram{From: from, To: "corr", Kind: DgramReport, Seq: s})
		}
	}
	encode := func(cp map[string]SeqState) string { return fmt.Sprint(cp) } // fmt sorts map keys
	report("sw", 1, 2, 9, 4, 7)
	r.srv.onDgram(Dgram{From: "gone", To: "corr", Kind: DgramHeartbeat, Seq: 1})
	cp := r.srv.SeqCheckpoint(nil)
	if _, ok := cp["gone"]; !ok || !slices.Equal(cp["sw"].Above, []uint64{4, 7, 9}) || cp["sw"].Contig != 2 {
		t.Fatalf("checkpoint %v", cp)
	}
	frame, above := encode(cp), &cp["sw"].Above[0]

	r.srv.RestoreSeq(map[string]SeqState{"sw": cp["sw"]})
	report("sw", 6, 3, 11)
	if got := r.srv.SeqCheckpoint(cp); reflect.ValueOf(got).UnsafePointer() != reflect.ValueOf(cp).UnsafePointer() {
		t.Fatal("the refill built a new map")
	}
	if _, ok := cp["gone"]; ok || len(cp) != 1 {
		t.Fatalf("refilled %v: a client RestoreSeq dropped is still there", cp)
	}
	if st := cp["sw"]; st.Contig != 4 || !slices.Equal(st.Above, []uint64{6, 7, 9, 11}) {
		t.Fatalf("refilled %v, want contig 4 above [6 7 9 11]", cp)
	}
	if &cp["sw"].Above[0] != above {
		t.Error("the refill did not re-use the client's Above array")
	}
	if frame != "map[gone:{0 []} sw:{2 [4 7 9]}]" {
		t.Fatalf("the earlier frame reads %s after the refill", frame)
	}
}

// TestRecycledRecordDuplicateArrivesIntact: both copies of a duplicated
// datagram are in flight at once; the first to land frees its record, the
// receiver's answer re-uses that record with other contents, and the second
// copy must still arrive as sent.
func TestRecycledRecordDuplicateArrivesIntact(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, Config{Duplicate: 1})
	sent := Dgram{From: "a", To: "b", Kind: DgramReport, Seq: 7, Payload: "original", Err: "e"}
	var atB, atA []Dgram
	n.Register("a", func(d Dgram) { atA = append(atA, d) })
	n.Register("b", func(d Dgram) {
		if atB = append(atB, d); len(atB) == 1 {
			n.Send(Dgram{From: "b", To: "a", Kind: DgramReportAck, Seq: 99, Payload: "other"})
		}
	})
	n.Send(sent)
	s.Run(0)
	if len(atB) != 2 || atB[0] != sent || atB[1] != sent {
		t.Fatalf("b received %+v, want two copies of %+v", atB, sent)
	}
	if len(atA) != 2 || atA[0].Seq != 99 || atA[1] != atA[0] {
		t.Fatalf("a received %+v, want two copies of the answer", atA)
	}
	if n.Stats.Delivered != 4 || len(n.free) >= 4 {
		t.Fatalf("%d deliveries used %d records; the answer did not re-use the landed one", n.Stats.Delivered, len(n.free))
	}
	for _, f := range n.free {
		if f.d != (Dgram{}) {
			t.Fatalf("a landed record still holds %+v", f.d)
		}
	}
}

// TestRecycledRecordHandlerSendsFromDelivery: a handler that sends and
// partitions from inside delivery has already been handed its datagram; the
// record it came in on is the one its own Send fills.
func TestRecycledRecordHandlerSendsFromDelivery(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, Config{})
	sent := Dgram{From: "a", To: "b", Kind: DgramCallReq, Seq: 3, Payload: "ask"}
	var got Dgram
	answered := false
	n.Register("a", func(Dgram) { answered = true })
	n.Register("b", func(d Dgram) {
		if len(n.free) != 1 {
			t.Errorf("%d free records inside the handler, want the one just landed", len(n.free))
		}
		n.Send(Dgram{From: "b", To: "a", Kind: DgramCallResp, Seq: 4, Payload: "answer"})
		if len(n.free) != 0 {
			t.Error("the handler's Send did not re-use the landed record")
		}
		n.Partition("b")
		n.Send(Dgram{From: "b", To: "a", Kind: DgramCallResp, Seq: 5})
		got = d
	})
	n.Send(sent)
	s.Run(0)
	if got != sent {
		t.Fatalf("handler saw %+v after sending, want %+v", got, sent)
	}
	if !answered || n.Stats.Delivered != 2 || n.Stats.PartitionDrops != 1 || len(n.free) != 1 {
		t.Fatalf("answered %v, %+v, %d records", answered, n.Stats, len(n.free))
	}
}

// TestRecycledRecordMidFlightPartition: a partition that starts while a
// datagram is in flight drops it at landing — counted, and the record
// recycled all the same.
func TestRecycledRecordMidFlightPartition(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s, Config{})
	n.Register("b", func(Dgram) { t.Error("delivered into a partition") })
	n.Send(Dgram{From: "a", To: "b", Seq: 1, Payload: "lost"})
	s.After(100*sim.Microsecond, func() { n.Partition("b") })
	s.Run(0)
	if n.Stats.PartitionDrops != 1 || n.Stats.Delivered != 0 {
		t.Fatalf("stats %+v, want one partition drop and no delivery", n.Stats)
	}
	if len(n.free) != 1 || n.free[0].d != (Dgram{}) {
		t.Fatalf("the dropped datagram's record was not recycled: %d free", len(n.free))
	}
	n.Heal("b")
	n.Register("b", func(Dgram) {})
	n.Send(Dgram{From: "a", To: "b", Seq: 2})
	if len(n.free) != 0 {
		t.Fatal("the next Send did not re-use the record")
	}
	s.Run(0)
	if n.Stats.Delivered != 1 {
		t.Fatalf("stats %+v after heal, want one delivery", n.Stats)
	}
}
