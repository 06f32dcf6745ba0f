package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fancy/internal/sim"
)

// refDirection is the two-event lane kept as the reference: every send
// takes the transmit lane, and its drain is an event at serialization end.
// The receive side (arrive, failure, chaos, capture, stats) is the
// direction it wraps; only the lanes are its own.
type refDirection struct {
	*direction

	txHead, txTail *Packet
	txArmed        bool
	drainFn        func()

	rxHead, rxTail *Packet
	rxArmed        bool
	arriveFn       func()

	busyUntil   sim.Time
	queuedBytes int
}

func (d *refDirection) depth() int { return d.queuedBytes }

func (d *refDirection) send(pkt *Packet) bool {
	now := d.s.Now()
	if d.queuedBytes+pkt.Size > d.queueCap {
		d.stats.CongestionDrops++
		d.captureEvent(CaptureCongestionDrop, pkt, now)
		pkt.release()
		return false
	}
	d.stats.Sent++
	d.stats.BytesSent += uint64(pkt.Size)
	d.queuedBytes += pkt.Size
	pkt.SentAt = now
	d.captureEvent(CaptureSend, pkt, now)

	txStart := d.busyUntil
	if txStart < now {
		txStart = now
	}
	serEnd := txStart + d.serialization(pkt.Size)
	d.busyUntil = serEnd

	pkt.laneAt = serEnd
	pkt.laneNext = nil
	pkt.laneEgressed = false
	if d.egressHook != nil && txStart == now {
		d.egressHook(pkt)
		pkt.laneEgressed = true
	}
	if d.txTail == nil {
		d.txHead = pkt
	} else {
		d.txTail.laneNext = pkt
	}
	d.txTail = pkt
	if !d.txArmed {
		d.txArmed = true
		if d.drainFn == nil {
			d.drainFn = d.drain
		}
		d.s.At(serEnd, d.drainFn)
	}
	return true
}

func (d *refDirection) drain() {
	d.txArmed = false
	now := d.s.Now()
	for d.txHead != nil && d.txHead.laneAt <= now {
		pkt := d.txHead
		d.txHead = pkt.laneNext
		if d.txHead == nil {
			d.txTail = nil
		}
		pkt.laneNext = nil
		d.queuedBytes -= pkt.Size
		if next := d.txHead; next != nil && d.egressHook != nil && !next.laneEgressed {
			d.egressHook(next)
			next.laneEgressed = true
		}
		d.handoff(pkt, now+d.delay)
	}
	if d.txHead != nil && !d.txArmed {
		d.txArmed = true
		d.s.At(d.txHead.laneAt, d.drainFn)
	}
}

func (d *refDirection) handoff(pkt *Packet, at sim.Time) {
	pkt.laneAt = at
	pkt.laneNext = nil
	if d.rxTail == nil {
		d.rxHead = pkt
	} else {
		d.rxTail.laneNext = pkt
	}
	d.rxTail = pkt
	if !d.rxArmed {
		d.rxArmed = true
		if d.arriveFn == nil {
			d.arriveFn = d.arriveLane
		}
		d.s.At(at, d.arriveFn)
	}
}

func (d *refDirection) arriveLane() {
	d.rxArmed = false
	now := d.s.Now()
	for d.rxHead != nil && d.rxHead.laneAt <= now {
		pkt := d.rxHead
		d.rxHead = pkt.laneNext
		if d.rxHead == nil {
			d.rxTail = nil
		}
		pkt.laneNext = nil
		d.arrive(pkt)
	}
	if d.rxHead != nil && !d.rxArmed {
		d.rxArmed = true
		d.s.At(d.rxHead.laneAt, d.arriveFn)
	}
}

// lane is what the differential workload sends into: a direction or its
// two-event reference.
type lane interface {
	send(*Packet) bool
	depth() int
	serialization(size int) sim.Time
}

// laneNode is a workload node: it logs what reaches it and may answer out
// of any of its ports, the one the packet came in on included.
type laneNode struct {
	name    string
	out     []lane
	receive func(n *laneNode, pkt *Packet, port int)
}

func (n *laneNode) Name() string             { return n.name }
func (n *laneNode) Attach(int, *LinkEnd)     {}
func (n *laneNode) Receive(p *Packet, i int) { n.receive(n, p, i) }

// laneCounts is what the real lanes did, for the fold assertions.
type laneCounts struct {
	folds    int // sends that reserved a slot instead of queueing a drain
	requeues int // sends that queued a drain in a lone packet's slot
	early    int // probes of a folded send that ran before its slot
	late     int // probes of a folded send that ran after it
}

// laneTranscript runs one random workload over real lanes or over their
// two-event reference and returns everything observable in order: sends
// and their results, egress hooks, queue-depth reads, and every capture
// event (sends, deliveries, drops), each with its time. It also returns
// the events the run executed.
//
// Four nodes: n0, n1 and n2 each link to n3, so arrivals at n3 tie at the
// same nanosecond; n0—n1 is a second path and n2 has a link to itself, so
// a delivery can send into the lane it came from. Rates include 0 and
// serialization at least as long as the delay; queues hold a few packets.
// Some directions carry a Failure or a Chaos. Every delivery may send
// again, and a send may be followed by a probe at its serialization end,
// queued before the send (so before a folded send's slot) or after it:
// the probe reads the depth and may send into the same lane.
func laneTranscript(seed int64, reference bool) (string, uint64, laneCounts) {
	const us = sim.Microsecond
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(seed)
	var log strings.Builder
	var counts laneCounts
	nodes := make([]*laneNode, 4)
	for i := range nodes {
		nodes[i] = &laneNode{name: fmt.Sprint("n", i)}
	}
	rates := []float64{0, 1e7, 1e8, 1e9}
	delays := []sim.Time{0, us, 5 * us, 20 * us, 200 * us}
	for k, ends := range [][2]int{{0, 3}, {1, 3}, {2, 3}, {0, 1}, {2, 2}} {
		a, b := nodes[ends[0]], nodes[ends[1]]
		cfg := LinkConfig{
			Delay:      delays[rng.Intn(len(delays))],
			RateBps:    rates[rng.Intn(len(rates))],
			QueueBytes: 500 + 250*rng.Intn(8),
		}
		bPort := len(b.out)
		if a == b {
			bPort++ // the loop's second end
		}
		l := Connect(s, a, len(a.out), b, bPort, cfg)
		for _, e := range []struct {
			end      *LinkEnd
			from, to *laneNode
		}{{l.AB, a, b}, {l.BA, b, a}} {
			d := e.end.dir
			name := fmt.Sprintf("%s>%s", e.from.name, e.to.name)
			switch rng.Intn(4) {
			case 0:
				d.failure = FailUniform(seed+int64(k), 0, 0.1)
			case 1:
				d.chaos = NewChaos(s, name)
				d.chaos.Reorder, d.chaos.JitterMax = 0.1, 30*us
				d.chaos.Duplicate, d.chaos.DupDelayMax = 0.05, 10*us
			}
			d.egressHook = func(pkt *Packet) { fmt.Fprintf(&log, "%d egress %s #%d\n", s.Now(), name, pkt.ID) }
			d.capture = func(ev CaptureEvent) {
				fmt.Fprintf(&log, "%d %v %s #%d\n", ev.Time, ev.Kind, name, ev.Pkt.ID)
			}
			var ln lane = d
			if reference {
				ln = &refDirection{direction: d}
			}
			e.from.out = append(e.from.out, ln)
		}
	}

	budget, nextID := 600, uint64(0)
	var send func(n *laneNode, port int)
	probe := func(n *laneNode, port int, ln lane, folded *bool, early bool) func() {
		return func() {
			fmt.Fprintf(&log, "%d probe %s.%d depth %d\n", s.Now(), n.name, port, ln.depth())
			if *folded {
				if early {
					counts.early++
				} else {
					counts.late++
				}
			}
			if rng.Intn(2) == 0 {
				send(n, port)
			}
		}
	}
	send = func(n *laneNode, port int) {
		if budget == 0 {
			return
		}
		budget--
		nextID++
		ln := n.out[port]
		pkt := &Packet{ID: nextID, Proto: ProtoUDP, Entry: EntryID(rng.Intn(3)), Size: 125 << rng.Intn(4)}
		// The serialization end if the serializer is idle: a folded
		// send's slot.
		serEnd := s.Now() + ln.serialization(pkt.Size)
		var folded bool
		when := rng.Intn(3)
		if when == 0 {
			s.At(serEnd, probe(n, port, ln, &folded, true))
		}
		id := pkt.ID
		d, folding := ln.(*direction) // the lanes under test, not the reference
		var lone sim.Slot
		var queued bool
		if folding {
			lone, queued = d.lone, d.loneQueued
		}
		ok := ln.send(pkt)
		fmt.Fprintf(&log, "%d send %s.%d #%d = %v\n", s.Now(), n.name, port, id, ok)
		if folding {
			if d.lone != lone {
				folded = true
				counts.folds++
			}
			if d.loneQueued && !queued {
				counts.requeues++
			}
		}
		if when == 1 {
			s.At(serEnd, probe(n, port, ln, &folded, false))
		}
	}
	for _, n := range nodes {
		n.receive = func(n *laneNode, pkt *Packet, port int) {
			for k := rng.Intn(3); k > 0; k-- {
				send(n, rng.Intn(len(n.out)))
			}
		}
	}
	for i := 0; i < 40; i++ {
		n := nodes[rng.Intn(len(nodes))]
		port := rng.Intn(len(n.out))
		s.At(sim.Time(rng.Intn(50))*us, func() { send(n, port) })
	}
	s.Run(0)
	return log.String(), s.Executed, counts
}

// TestLaneMatchesTwoEventReference: over random workloads the lanes with
// the lone-packet fold do exactly what the two-event reference does —
// every send result, egress hook, depth reading, delivery and drop, in
// order and at the same time — and run one event fewer per folded send
// whose drain nothing had to queue.
func TestLaneMatchesTwoEventReference(t *testing.T) {
	var total laneCounts
	for seed := int64(1); seed <= 200; seed++ {
		got, gotRan, c := laneTranscript(seed, false)
		want, wantRan, _ := laneTranscript(seed, true)
		if got != want {
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range g {
				if i >= len(w) || g[i] != w[i] {
					lo := max(0, i-8)
					t.Fatalf("seed %d: lanes diverge from the two-event reference at line %d\nlanes:\n%s\nreference:\n%s",
						seed, i+1, strings.Join(g[lo:i+1], "\n"), strings.Join(w[lo:min(i+1, len(w))], "\n"))
				}
			}
			t.Fatalf("seed %d: the lanes' transcript is a strict prefix of the reference's", seed)
		}
		if saved := int(wantRan) - int(gotRan); saved != c.folds-c.requeues {
			t.Fatalf("seed %d: %d events saved, want %d folded sends less %d drains queued in a slot",
				seed, saved, c.folds, c.requeues)
		}
		total.folds += c.folds
		total.requeues += c.requeues
		total.early += c.early
		total.late += c.late
	}
	if total.folds <= total.requeues || total.requeues == 0 || total.early == 0 || total.late == 0 {
		t.Fatalf("the workload missed a case: %+v", total)
	}
	t.Logf("%+v", total)
}
