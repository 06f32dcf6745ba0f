package fancy

// Custom counting sessions — the §4.1 extensibility claim: "our FSMs can
// be easily extended to synchronize and exchange arbitrary state across
// switches. Indeed, exchanging information other than packet counters only
// requires to tweak the semantics that switches associate to packet tags,
// and adjust the content of the Report messages."
//
// A CustomUnit defines those two things: how egress packets map to tags
// (and local state), and what to do with the downstream's report. The unit
// rides the existing stop-and-wait sender/receiver FSMs unchanged, getting
// their reliability (retransmission, link-down reporting) for free.
//
// SizeHistogramUnit below is a working example: it synchronizes per-packet-
// size bucket counters to localize the Table 1 bug class "drops packets
// with specific sizes" — something per-entry counters cannot express.

import (
	"fmt"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// CustomSender is the upstream half of a custom session.
type CustomSender interface {
	// ResetSession zeroes local state for a new counting session.
	ResetSession()
	// Observe maps an egress packet to its tag; ok=false leaves the
	// packet untagged and uncounted this session.
	Observe(pkt *netsim.Packet) (tag wire.Tag, ok bool)
	// HandleReport receives the downstream's state at session close.
	// state is borrowed from the control-message parse scratch and is only
	// valid for the duration of the call; copy it to retain it.
	HandleReport(state []uint64)
}

// CustomReceiver is the downstream half.
type CustomReceiver interface {
	ResetSession()
	// Count processes one tagged packet.
	Count(tag wire.Tag)
	// Snapshot returns the state for the Report message.
	Snapshot() []uint64
}

// customUnitBase is the wire unit number of a port's custom session, clear
// of the dedicated-entry slots.
const customUnitBase uint16 = 0xf000

// MonitorCustom opens recurring custom sessions on an egress port,
// exchanging cs's state every interval with the half the downstream
// registers through ListenCustom. MonitorPort must have been called for the
// port first (custom sessions share its infrastructure). The session is one
// more unit of the port: it survives Restart like the others, and its
// packets are not counted by the dedicated or tree units.
func (d *Detector) MonitorCustom(port int, interval sim.Time, cs CustomSender) {
	m := d.monitor(port)
	if m == nil {
		panic(fmt.Sprintf("fancy: MonitorCustom before MonitorPort(%d)", port))
	}
	if m.custom != nil {
		// Packet tags carry no unit number, so tagged-packet dispatch at
		// the receiver supports one custom unit per port.
		panic(fmt.Sprintf("fancy: port %d already has a custom session", port))
	}
	m.custom = d.startUnit(new(senderFSM), port, wire.KindCustom, customUnitBase, interval, 0, &customSenderAdapter{cs})
}

// ListenCustom registers the downstream half of the custom session arriving
// on an ingress port.
func (d *Detector) ListenCustom(port int, cr CustomReceiver) {
	d.ListenPort(port)
	d.listeners[port].customRecv = cr
}

// customSenderAdapter bridges CustomSender onto the senderCounters
// interface the FSM drives.
type customSenderAdapter struct{ cs CustomSender }

func (a *customSenderAdapter) resetSession(dst []wire.ZoomTarget) []wire.ZoomTarget {
	a.cs.ResetSession()
	return dst
}

func (a *customSenderAdapter) tagPacket(pkt *netsim.Packet) (wire.Tag, bool) {
	return a.cs.Observe(pkt)
}

func (a *customSenderAdapter) handleReport(counters []uint64) {
	a.cs.HandleReport(counters)
}

// customReceiverAdapter bridges CustomReceiver onto receiverCounters.
type customReceiverAdapter struct{ cr CustomReceiver }

func (a *customReceiverAdapter) resetSession([]wire.ZoomTarget) { a.cr.ResetSession() }
func (a *customReceiverAdapter) countTag(tag wire.Tag)          { a.cr.Count(tag) }
func (a *customReceiverAdapter) appendSnapshot(dst []uint64) []uint64 {
	return append(dst, a.cr.Snapshot()...)
}

// SizeBuckets is the bucket count of SizeHistogramUnit (64-byte buckets up
// to 1536 B and an overflow bucket → 25 buckets fit one tag byte).
const SizeBuckets = 25

// SizeHistogramUnit synchronizes per-packet-size counters across a link,
// localizing hardware bugs that drop packets of specific sizes. It
// implements both CustomSender and CustomReceiver (instantiate one per
// side).
type SizeHistogramUnit struct {
	counts [SizeBuckets]uint64

	// OnMismatch fires on the upstream side for each size bucket with
	// missing packets.
	OnMismatch func(bucket int, diff uint64)

	// FlaggedBuckets accumulates mismatching buckets across sessions.
	FlaggedBuckets map[int]bool
}

// NewSizeHistogramUnit builds a unit.
func NewSizeHistogramUnit() *SizeHistogramUnit {
	return &SizeHistogramUnit{FlaggedBuckets: make(map[int]bool)}
}

// SizeBucket maps a wire size to its bucket.
func SizeBucket(size int) int {
	b := size / 64
	if b >= SizeBuckets {
		b = SizeBuckets - 1
	}
	return b
}

// BucketRange describes a bucket's size range for reports.
func BucketRange(b int) string {
	if b >= SizeBuckets-1 {
		return fmt.Sprintf("≥%dB", (SizeBuckets-1)*64)
	}
	return fmt.Sprintf("%d-%dB", b*64, b*64+63)
}

// ResetSession implements CustomSender/CustomReceiver.
func (u *SizeHistogramUnit) ResetSession() {
	for i := range u.counts {
		u.counts[i] = 0
	}
}

// Observe implements CustomSender.
func (u *SizeHistogramUnit) Observe(pkt *netsim.Packet) (wire.Tag, bool) {
	b := SizeBucket(pkt.Size)
	u.counts[b]++
	return wire.Tag{Node: 0, Counter: uint8(b)}, true
}

// Count implements CustomReceiver.
func (u *SizeHistogramUnit) Count(tag wire.Tag) {
	if int(tag.Counter) < SizeBuckets {
		u.counts[tag.Counter]++
	}
}

// Snapshot implements CustomReceiver.
func (u *SizeHistogramUnit) Snapshot() []uint64 {
	out := make([]uint64, SizeBuckets)
	copy(out, u.counts[:])
	return out
}

// HandleReport implements CustomSender.
func (u *SizeHistogramUnit) HandleReport(state []uint64) {
	for b := 0; b < SizeBuckets && b < len(state); b++ {
		if u.counts[b] > state[b] {
			u.FlaggedBuckets[b] = true
			if u.OnMismatch != nil {
				u.OnMismatch(b, u.counts[b]-state[b])
			}
		}
	}
}
