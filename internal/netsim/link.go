package netsim

import (
	"fmt"

	"fancy/internal/sim"
)

// LinkConfig describes one link's physical characteristics. The same values
// apply to both directions.
type LinkConfig struct {
	// Delay is the one-way propagation delay. The paper evaluates FANcY
	// with 10 ms inter-switch delay to represent large ISPs.
	Delay sim.Time
	// RateBps is the line rate in bits per second (e.g. 100e9). Rates are
	// truncated to whole bits per second: serialization times are computed
	// in integer arithmetic (see direction.serialization).
	RateBps float64
	// QueueBytes bounds the transmit (traffic-manager) queue per
	// direction; packets beyond it are congestion drops, which FANcY must
	// NOT attribute to gray failures. Zero means a 1 MB default.
	QueueBytes int
}

const defaultQueueBytes = 1 << 20

// LinkEnd is the transmit handle a node uses to send packets into one
// direction of a link.
type LinkEnd struct {
	dir *direction
}

// Send queues pkt for transmission. It reports false if the packet was
// dropped at the queue (congestion). Either way the packet is no longer the
// caller's: a dropped packet has already gone back to its pool.
func (e *LinkEnd) Send(pkt *Packet) bool { return e.dir.send(pkt) }

// SetFailure installs (or clears, with nil) the gray-failure injector on
// this direction.
func (e *LinkEnd) SetFailure(f *Failure) { e.dir.failure = f }

// SetChaos installs (or clears, with nil) the adversarial link-condition
// injector on this direction.
func (e *LinkEnd) SetChaos(c *Chaos) { e.dir.chaos = c }

// Stats returns transmission statistics for this direction.
func (e *LinkEnd) Stats() LinkStats { return e.dir.stats }

// QueueDepthBytes reports the bytes currently waiting or in serialization.
func (e *LinkEnd) QueueDepthBytes() int { return e.dir.depth() }

// LinkStats counts per-direction outcomes.
type LinkStats struct {
	Sent            uint64 // packets accepted for transmission
	Delivered       uint64 // packets handed to the far end
	CongestionDrops uint64 // traffic-manager queue overflow
	FailureDrops    uint64 // removed by the gray-failure injector
	BytesSent       uint64
}

// direction is one half of a full-duplex link.
//
// Each direction runs two serialized LANES instead of per-packet heap
// events: an intrusive transmit FIFO ordered by serialization-end time and
// an intrusive receive FIFO ordered by arrival time (serialization end +
// propagation delay — monotone because serialization ends are). Each lane
// keeps at most ONE recurring event in the simulator heap, armed for its
// head packet, so a send costs O(1) lane appends instead of two or three
// heap pushes with escaping closures.
//
// A send into an idle serializer whose receive lane is busy past its
// serialization end skips the transmit lane: its drain would only append
// it to a lane already armed and release its queue bytes. The packet goes
// to the receive lane at once, as the lone packet, and the drain's place
// in the event order is reserved instead of queued (sim.Slot). Its bytes
// count until the slot has passed; a send that has to queue behind it
// queues the drain in that slot. Every event thus keeps the (time,
// sequence) key it has without the fold, and runs in the same order.
type direction struct {
	s *sim.Sim

	delay    sim.Time
	rateBps  int64 // whole bits per second; 0 = infinitely fast
	queueCap int

	dst     Node
	dstPort int

	// egressHook runs when a packet leaves the traffic-manager queue and
	// begins serialization — i.e. after the upstream TM, where FANcY's
	// sender-side counting happens.
	egressHook func(*Packet)

	// Transmit lane: packets in (or waiting for) the serializer, laneAt =
	// serialization end.
	txHead, txTail *Packet
	drainFn        func()

	// Lone packet: lone is its drain's slot, loneBytes its queue bytes
	// until that slot has passed. The zero slot has passed: no lone packet.
	lone      sim.Slot
	loneBytes int

	// Receive lane: packets in flight, laneAt = arrival time.
	rxHead, rxTail *Packet
	arriveFn       func()

	// txArmed and rxArmed tell whether a lane's event is in the heap;
	// loneQueued that the drain is, in the lone packet's slot.
	txArmed, rxArmed, loneQueued bool

	busyUntil   sim.Time
	queuedBytes int
	failure     *Failure
	chaos       *Chaos
	capture     func(CaptureEvent)
	stats       LinkStats
}

// captureEvent shows pkt to the capture observer, if any. The observer may
// hold on to the packet (capture tests inspect packets after the run), so
// a captured packet is pinned: it loses its home and is never recycled,
// here or at any later death point.
func (d *direction) captureEvent(kind CaptureKind, pkt *Packet, now sim.Time) {
	if d.capture != nil {
		pkt.home = nil
		d.capture(CaptureEvent{Time: now, Kind: kind, Pkt: pkt})
	}
}

// serialization returns the transmit time of size bytes in integer
// arithmetic, rounded UP to the next nanosecond: a packet never finishes
// serialization early, and equal inputs give bit-identical times on every
// platform (the old float64 math could drift at high rates). With sizes
// bounded by the queue capacity (~1 MB) the intermediate bits*Second
// product stays far below int64 overflow.
func (d *direction) serialization(size int) sim.Time {
	if d.rateBps <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return sim.Time((bits*int64(sim.Second) + d.rateBps - 1) / d.rateBps)
}

// depth returns the bytes waiting or in serialization, first releasing
// the lone packet's once its serialization end has passed.
func (d *direction) depth() int {
	if d.loneBytes != 0 && d.lone.Passed() {
		d.queuedBytes -= d.loneBytes
		d.loneBytes = 0
	}
	return d.queuedBytes
}

func (d *direction) send(pkt *Packet) bool {
	now := d.s.Now()
	if d.depth()+pkt.Size > d.queueCap {
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

	pkt.laneNext = nil
	pkt.laneEgressed = false
	if d.egressHook != nil && txStart == now {
		// Idle serializer: the packet starts transmitting immediately.
		// Queued packets get their hook when the drain promotes them to
		// the serializer (their predecessor's serialization end).
		d.egressHook(pkt)
		pkt.laneEgressed = true
	}
	if txStart == now && d.txHead == nil && d.rxArmed && d.rxTail.laneAt > serEnd && d.lone.Passed() {
		d.lone = d.s.Reserve(serEnd)
		d.loneBytes = pkt.Size
		d.handoff(pkt, serEnd+d.delay) // the lane is armed: pushes nothing
		return true
	}
	pkt.laneAt = serEnd
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
		if d.lone.Passed() {
			d.s.At(serEnd, d.drainFn)
		} else {
			d.loneQueued = true
			d.lone.Queue(d.drainFn)
		}
	}
	return true
}

// drain retires every transmit-lane packet whose serialization has
// finished: it releases the queue bytes, starts the next packet's
// serialization (egress hook), and hands the packet to the receive lane
// one propagation delay out. It then re-arms for the new head.
func (d *direction) drain() {
	d.txArmed = false
	if d.loneQueued {
		// The lone packet's drain, queued by a send that found it still
		// serializing. The packet is on the receive lane already, and its
		// bytes go at the next depth read: start the next packet's
		// serialization.
		d.loneQueued = false
		if next := d.txHead; d.egressHook != nil && !next.laneEgressed {
			d.egressHook(next)
			next.laneEgressed = true
		}
	}
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

// handoff appends a serialized packet to the receive lane, due at time at.
func (d *direction) handoff(pkt *Packet, at sim.Time) {
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

// arriveLane delivers every receive-lane packet whose arrival time has
// come, then re-arms for the new head. Arrival times are monotone per
// direction (FIFO links), so the lane never reorders.
func (d *direction) arriveLane() {
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

// arrive runs the receive-side injectors and hands the packet to the far
// node. Failure (clean gray-failure drops) applies first, then Chaos
// (corruption, duplication, reorder, flap).
func (d *direction) arrive(pkt *Packet) {
	now := d.s.Now()
	if d.failure.Drop(pkt, now) {
		d.stats.FailureDrops++
		d.captureEvent(CaptureFailureDrop, pkt, now)
		pkt.release()
		return
	}
	if c := d.chaos; c != nil {
		verdict, extra, dup := c.apply(pkt, now)
		if dup {
			// The extra copy lands shortly after the original and skips
			// further chaos rolls (one fault decision per transmission).
			copyPkt := pkt.clone()
			d.s.After(c.dupDelay(), func() {
				c.Stats.Duplicated++
				d.deliver(copyPkt)
			})
		}
		switch verdict {
		case chaosDrop:
			d.captureEvent(CaptureChaosDrop, pkt, now)
			pkt.release()
			return
		case chaosDelay:
			d.s.After(extra, func() { d.deliver(pkt) })
			return
		}
	}
	d.deliver(pkt)
}

func (d *direction) deliver(pkt *Packet) {
	d.stats.Delivered++
	d.captureEvent(CaptureDeliver, pkt, d.s.Now())
	d.dst.Receive(pkt, d.dstPort)
}

// Link is a full-duplex point-to-point link between two node ports.
type Link struct {
	AB *LinkEnd // direction a → b
	BA *LinkEnd // direction b → a
}

// Connect wires port aPort of node a to port bPort of node b and attaches
// the transmit handles to both nodes.
func Connect(s *sim.Sim, a Node, aPort int, b Node, bPort int, cfg LinkConfig) *Link {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = defaultQueueBytes
	}
	if cfg.RateBps < 0 {
		panic(fmt.Sprintf("netsim: negative rate %v", cfg.RateBps))
	}
	if cfg.Delay < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", cfg.Delay))
	}
	if cfg.QueueBytes < 0 {
		panic(fmt.Sprintf("netsim: negative queue size %d", cfg.QueueBytes))
	}
	rate := int64(cfg.RateBps)
	ab := &direction{s: s, delay: cfg.Delay, rateBps: rate, queueCap: cfg.QueueBytes, dst: b, dstPort: bPort}
	ba := &direction{s: s, delay: cfg.Delay, rateBps: rate, queueCap: cfg.QueueBytes, dst: a, dstPort: aPort}
	l := &Link{AB: &LinkEnd{dir: ab}, BA: &LinkEnd{dir: ba}}
	a.Attach(aPort, l.AB)
	b.Attach(bPort, l.BA)
	return l
}
