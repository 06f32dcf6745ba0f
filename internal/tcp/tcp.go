// Package tcp implements a simplified TCP (Reno-style) on top of the netsim
// substrate: slow start, AIMD congestion avoidance, fast retransmit on three
// duplicate ACKs, and a retransmission timeout with exponential backoff.
//
// The FANcY evaluation depends on closed-loop TCP dynamics: under a 100 %
// blackhole all traffic collapses to exponentially spaced retransmissions
// (making detection *harder* than at 50 % loss, see Table 3 discussion),
// while moderate loss keeps flows sending. This package reproduces exactly
// those dynamics. The paper's simulations use a 200 ms retransmission
// timeout, and so does this package.
package tcp

import (
	"cmp"
	"slices"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// Config parameterizes a TCP sender.
type Config struct {
	MSS int // payload bytes per segment (default 1460)

	// RateBps paces the application: bytes become available for sending
	// at this rate, emulating a flow with a target bitrate. Zero means
	// unpaced (bulk transfer limited only by cwnd).
	RateBps float64
}

// The rest of the sender is fixed; no experiment varies it.
const (
	headerBytes = 40                    // header overhead per packet
	initialRTO  = 200 * sim.Millisecond // initial retransmission timeout
	maxRTO      = 60 * sim.Second       // backoff cap
	initialCwnd = 10                    // initial window in segments
)

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = 1460
	}
}

// Stats aggregates a sender's lifetime counters.
type Stats struct {
	SegmentsSent    uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	BytesAcked      int64
	CompletedAt     sim.Time // zero until the flow finishes
}

// Sender is the sending side of a flow. Create with NewSender; the receiver
// side is created automatically on the destination host.
type Sender struct {
	cfg   Config
	s     *sim.Sim
	host  *netsim.Host
	flow  netsim.FlowID
	entry netsim.EntryID
	src   uint32
	dst   uint32

	total int64 // application bytes to deliver
	start sim.Time

	sndUna   int64
	sndNxt   int64
	cwnd     float64 // segments
	ssthresh float64
	dupAcks  int
	recover  int64 // highest seq sent when loss was detected (NewReno-lite)

	// Timers are held by value and fire the Sender through the named
	// conversions rtoFire and payFire, so arming one allocates nothing.
	rto      sim.Time
	rtoTimer sim.Timer
	payTimer sim.Timer // pending pacing wakeup

	done bool

	Stats Stats
}

// NewSender creates a flow sending total bytes from srcHost to dstAddr, and
// installs the matching receiver on dstHost. Data packets carry entry so
// that link failure models and FANcY can classify them; ACKs carry
// netsim.InvalidEntry (they flow on the reverse path).
//
// The flow is one allocation holding both ends; its receiver keeps its own
// reorder buffer once it has one. Block.NewSender opens the flows of a batch
// in one allocation instead.
func NewSender(s *sim.Sim, srcHost, dstHost *netsim.Host, flow netsim.FlowID,
	entry netsim.EntryID, srcAddr, dstAddr uint32, total int64, cfg Config) *Sender {
	c := new(conn)
	c.open(s, srcHost, dstHost, flow, entry, srcAddr, dstAddr, total, cfg, nil)
	return &c.snd
}

// conn holds both ends of a flow.
type conn struct {
	snd Sender
	rcv receiver
}

// open starts both ends of a flow in c and binds them to their hosts; blk
// is the block c belongs to, nil for a flow of its own.
func (c *conn) open(s *sim.Sim, srcHost, dstHost *netsim.Host, flow netsim.FlowID,
	entry netsim.EntryID, srcAddr, dstAddr uint32, total int64, cfg Config, blk *Block) {
	cfg.fill()
	c.snd = Sender{
		cfg: cfg, s: s, host: srcHost, flow: flow, entry: entry,
		src: srcAddr, dst: dstAddr, total: total,
		cwnd: initialCwnd, ssthresh: 1 << 20, rto: initialRTO,
		start: s.Now(),
	}
	c.rcv = receiver{host: dstHost, flow: flow, src: dstAddr, dst: srcAddr, blk: blk}
	srcHost.Bind(flow, (*ackHandler)(&c.snd))
	dstHost.Bind(flow, &c.rcv)
}

// Block holds the connection records of a batch of flows in one
// allocation, in the order they are opened, so flows opened close together
// in time sit together in memory. Its receivers share the reorder buffers
// they have drained: a receiver takes one at a gap and hands it back once
// the gap fills. A buffer the spares cannot supply is cut from a chunk of
// reorderChunk slots, so a block allocates once per reorderChunk flows out
// of order at once, not once per flow.
type Block struct {
	flows int     // records the block holds
	conns []conn  // nil until the first flow opens; len: records opened so far
	spare [][]seg // drained reorder buffers, each empty
	chunk []seg   // the unused slots of the latest chunk
}

// A reorder buffer starts in a slot of reorderSlot segments; a chunk holds
// reorderChunk slots, or one per flow of a smaller block.
const (
	reorderSlot  = 8
	reorderChunk = 256
)

// buffer returns an empty reorder buffer: a spare one, or the next slot of
// the chunk. A slot's capacity ends where the next begins, so a buffer that
// outgrows it reallocates on its own and never writes into a neighbour.
func (b *Block) buffer() []seg {
	if n := len(b.spare); n > 0 {
		s := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return s
	}
	if len(b.chunk) == 0 {
		b.chunk = make([]seg, reorderSlot*min(reorderChunk, max(b.flows, 1)))
	}
	s := b.chunk[:0:reorderSlot]
	b.chunk = b.chunk[reorderSlot:]
	return s
}

// NewBlock makes a block for n flows. Their records are allocated together
// when the first flow opens, so a trace scheduled ahead holds no memory
// until it starts.
func NewBlock(n int) *Block { return &Block{flows: n} }

// NewSender is NewSender on the block's next record. It panics once the
// block's n records are taken.
func (b *Block) NewSender(s *sim.Sim, srcHost, dstHost *netsim.Host, flow netsim.FlowID,
	entry netsim.EntryID, srcAddr, dstAddr uint32, total int64, cfg Config) *Sender {
	if b.conns == nil {
		b.conns = make([]conn, 0, b.flows)
	}
	n := len(b.conns)
	if n == cap(b.conns) {
		panic("tcp: NewSender on a full Block")
	}
	b.conns = b.conns[:n+1]
	c := &b.conns[n]
	c.open(s, srcHost, dstHost, flow, entry, srcAddr, dstAddr, total, cfg, b)
	return &c.snd
}

// ackHandler is the Sender as the source host's handler for its flow's
// ACKs; a named conversion keeps HandlePacket out of Sender's API.
type ackHandler Sender

// HandlePacket implements netsim.PacketHandler.
func (h *ackHandler) HandlePacket(pkt *netsim.Packet) { (*Sender)(h).onAck(pkt) }

// rtoFire and payFire are the Sender as the sim.Actor of its
// retransmission and pacing timers.
type (
	rtoFire Sender
	payFire Sender
)

func (t *rtoFire) Fire() { (*Sender)(t).onTimeout() }
func (t *payFire) Fire() { (*Sender)(t).trySend() }

// Start begins transmission.
func (t *Sender) Start() { t.trySend() }

// Done reports whether every byte has been acknowledged.
func (t *Sender) Done() bool { return t.done }

// available returns application bytes released by pacing at the current time.
func (t *Sender) available() int64 {
	if t.cfg.RateBps <= 0 {
		return t.total
	}
	elapsed := t.s.Now() - t.start
	avail := int64(t.cfg.RateBps * elapsed.Seconds() / 8)
	// Always allow at least one segment immediately so short flows start.
	if avail < int64(t.cfg.MSS) {
		avail = int64(t.cfg.MSS)
	}
	if avail > t.total {
		avail = t.total
	}
	return avail
}

func (t *Sender) trySend() {
	if t.done {
		return
	}
	wnd := t.sndUna + int64(t.cwnd*float64(t.cfg.MSS))
	avail := t.available()
	for t.sndNxt < wnd && t.sndNxt < avail {
		segLen := int(min64(int64(t.cfg.MSS), avail-t.sndNxt))
		if segLen < t.cfg.MSS && t.sndNxt+int64(segLen) < t.total {
			// Wait until pacing releases a full segment; emitting runts
			// here would let the ACK clock shred the flow into tinygrams.
			break
		}
		t.emit(t.sndNxt, segLen, false)
		t.sndNxt += int64(segLen)
	}
	// If the window has room but pacing has not released a full segment
	// yet, wake up when the next one becomes available.
	if t.cfg.RateBps > 0 && t.sndNxt < wnd && avail < t.total &&
		t.sndNxt+int64(t.cfg.MSS) > avail {
		if !t.payTimer.Active() {
			next := sim.Time(float64(t.cfg.MSS*8) / t.cfg.RateBps * float64(sim.Second))
			if next <= 0 {
				next = sim.Microsecond
			}
			t.payTimer = t.s.ScheduleTimerActor(next, (*payFire)(t))
		}
	}
	t.armRTO()
}

func (t *Sender) emit(seq int64, segLen int, isRtx bool) {
	pkt := t.host.Pool().Get()
	pkt.Flow, pkt.Entry, pkt.Src, pkt.Dst = t.flow, t.entry, t.src, t.dst
	pkt.Proto, pkt.Size = netsim.ProtoTCP, segLen+headerBytes
	pkt.Seq, pkt.Len = seq, segLen
	t.Stats.SegmentsSent++
	if isRtx {
		t.Stats.Retransmits++
	}
	t.host.Send(pkt)
}

func (t *Sender) armRTO() {
	if t.done || t.sndNxt == t.sndUna {
		t.rtoTimer.Stop()
		return
	}
	if t.rtoTimer.Active() {
		return
	}
	t.rtoTimer = t.s.ScheduleTimerActor(t.rto, (*rtoFire)(t))
}

func (t *Sender) onTimeout() {
	if t.done || t.sndNxt == t.sndUna {
		return
	}
	t.Stats.Timeouts++
	t.ssthresh = maxf(t.cwnd/2, 2)
	t.cwnd = 1
	t.dupAcks = 0
	t.rto *= 2
	if t.rto > maxRTO {
		t.rto = maxRTO
	}
	// Retransmit the first unacknowledged segment.
	segLen := int(min64(int64(t.cfg.MSS), t.total-t.sndUna))
	if segLen > 0 {
		t.emit(t.sndUna, segLen, true)
	}
	t.rtoTimer = t.s.ScheduleTimerActor(t.rto, (*rtoFire)(t))
}

func (t *Sender) onAck(pkt *netsim.Packet) {
	if t.done || pkt.Flags&netsim.FlagACK == 0 {
		return
	}
	ack := pkt.Ack
	switch {
	case ack > t.sndUna: // new data acknowledged
		t.Stats.BytesAcked = ack
		t.sndUna = ack
		t.dupAcks = 0
		t.rto = initialRTO // fresh RTT estimate proxy
		t.rtoTimer.Stop()
		if ack >= t.recover {
			// Exit recovery: congestion avoidance or slow start resumes.
			if t.cwnd < t.ssthresh {
				t.cwnd++
			} else {
				t.cwnd += 1 / t.cwnd
			}
		} else {
			// Partial ACK during recovery: retransmit next hole (NewReno).
			segLen := int(min64(int64(t.cfg.MSS), t.total-t.sndUna))
			if segLen > 0 {
				t.emit(t.sndUna, segLen, true)
				t.Stats.FastRetransmits++
			}
		}
		if t.sndUna >= t.total {
			t.done = true
			t.Stats.CompletedAt = t.s.Now()
			t.rtoTimer.Stop()
			t.payTimer.Stop()
			return
		}
		t.trySend()
	case ack == t.sndUna: // duplicate
		t.dupAcks++
		if t.dupAcks == 3 {
			t.Stats.FastRetransmits++
			t.ssthresh = maxf(t.cwnd/2, 2)
			t.cwnd = t.ssthresh
			t.recover = t.sndNxt
			segLen := int(min64(int64(t.cfg.MSS), t.total-t.sndUna))
			if segLen > 0 {
				t.emit(t.sndUna, segLen, true)
			}
			t.rtoTimer.Stop()
			t.armRTO()
		}
	}
}

// receiver implements cumulative ACKs with out-of-order buffering.
type receiver struct {
	host *netsim.Host
	flow netsim.FlowID
	src  uint32 // our address (ACK source)
	dst  uint32 // sender address

	rcvNxt int64
	segs   []seg  // buffered out-of-order segments in ascending seq; nil until the first
	blk    *Block // the block whose spare buffers segs comes from and returns to; nil: segs is kept
}

// seg is one buffered out-of-order segment.
type seg struct {
	seq int64
	len int
}

// HandlePacket implements netsim.PacketHandler: the destination host hands
// the receiver its flow's data segments.
func (r *receiver) HandlePacket(pkt *netsim.Packet) {
	if pkt.Len == 0 {
		return
	}
	if pkt.Seq == r.rcvNxt {
		r.rcvNxt += int64(pkt.Len)
		// Drain the buffered continuation. A segment the advance has
		// passed could never be the next in order again: drop it too.
		n := 0
		for ; n < len(r.segs) && r.segs[n].seq <= r.rcvNxt; n++ {
			if r.segs[n].seq == r.rcvNxt {
				r.rcvNxt += int64(r.segs[n].len)
			}
		}
		r.segs = slices.Delete(r.segs, 0, n)
		if len(r.segs) == 0 && r.segs != nil && r.blk != nil {
			r.blk.spare = append(r.blk.spare, r.segs)
			r.segs = nil
		}
	} else if pkt.Seq > r.rcvNxt {
		r.buffer(pkt.Seq, pkt.Len)
	}
	// ACK every segment (no delayed ACKs).
	ack := r.host.Pool().Get()
	ack.Flow, ack.Entry, ack.Src, ack.Dst = r.flow, netsim.InvalidEntry, r.src, r.dst
	ack.Proto, ack.Size, ack.Ack, ack.Flags = netsim.ProtoTCP, 40, r.rcvNxt, netsim.FlagACK
	r.host.Send(ack)
}

// buffer keeps an out-of-order segment in seq order; a segment already
// buffered at seq takes the new length.
func (r *receiver) buffer(seq int64, n int) {
	if r.segs == nil {
		if r.blk != nil {
			r.segs = r.blk.buffer()
		} else {
			r.segs = make([]seg, 0, reorderSlot)
		}
	}
	i, found := slices.BinarySearchFunc(r.segs, seq, func(s seg, seq int64) int { return cmp.Compare(s.seq, seq) })
	if found {
		r.segs[i].len = n
		return
	}
	r.segs = slices.Insert(r.segs, i, seg{seq, n})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
