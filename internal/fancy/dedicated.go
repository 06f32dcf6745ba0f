package fancy

// Dedicated counters: each high-priority entry is tracked by one pair of
// counters (one per session side) driven by its own sender/receiver FSM
// pair (§4.3). Detection is immediate — any positive discrepancy at session
// close flags the entry, with zero false positives.

import (
	"fancy/internal/netsim"
	"fancy/internal/wire"
)

// senderUnit and receiverUnit are a dedicated unit's FSM and counter in one
// record, with the receiver's one-counter Report buffer: an element of a
// port's block for a static slot, or a promoted slot's own object.
type (
	senderUnit struct {
		fsm senderFSM
		ctr dedicatedSender
	}
	receiverUnit struct {
		fsm    receiverFSM
		ctr    dedicatedReceiver
		report [1]uint64
	}
)

// dedicatedSender is the sender-side counter for one high-priority entry.
type dedicatedSender struct {
	det   *Detector
	port  int
	slot  int // index into the FlagArray and wire unit
	entry netsim.EntryID
	count uint64
}

func (d *dedicatedSender) resetSession(dst []wire.ZoomTarget) []wire.ZoomTarget {
	d.count = 0
	return dst
}

func (d *dedicatedSender) tagPacket(*netsim.Packet) (wire.Tag, bool) {
	// The detector routes only this entry's packets here.
	d.count++
	return wire.DedicatedTag(uint16(d.slot)), true
}

func (d *dedicatedSender) handleReport(counters []uint64) {
	if len(counters) != 1 {
		return // malformed report
	}
	remote := counters[0]
	if d.count > remote {
		d.det.outputs(d.port).Flags.Set(d.slot)
		d.det.emit(Event{
			Time: d.det.s.Now(), Port: d.port, Kind: EventDedicated,
			Entry: d.entry, Diff: d.count - remote,
		})
	}
}

// dedicatedReceiver is the downstream counter for one high-priority entry.
type dedicatedReceiver struct {
	count uint64
}

func (d *dedicatedReceiver) resetSession(_ []wire.ZoomTarget)     { d.count = 0 }
func (d *dedicatedReceiver) countTag(_ wire.Tag)                  { d.count++ }
func (d *dedicatedReceiver) appendSnapshot(dst []uint64) []uint64 { return append(dst, d.count) }
