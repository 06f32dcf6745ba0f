package netsim

import (
	"fmt"

	"fancy/internal/sim"
)

// CaptureKind classifies a capture event on a link direction.
type CaptureKind uint8

// Capture event kinds.
const (
	CaptureSend CaptureKind = iota // accepted for transmission
	CaptureDeliver
	CaptureCongestionDrop
	CaptureFailureDrop
	CaptureChaosDrop // removed by the chaos injector (flap or CRC)
)

func (k CaptureKind) String() string {
	switch k {
	case CaptureSend:
		return "send"
	case CaptureDeliver:
		return "deliver"
	case CaptureCongestionDrop:
		return "congestion-drop"
	case CaptureFailureDrop:
		return "failure-drop"
	case CaptureChaosDrop:
		return "chaos-drop"
	}
	return fmt.Sprintf("capture(%d)", uint8(k))
}

// CaptureEvent is one observed packet event. A captured packet is pinned —
// never recycled (see PacketPool) — so an observer may keep the pointer;
// but downstream nodes still mutate the packet as it travels on (tag
// stripping, Ctl corruption), so copy fields to record a moment.
type CaptureEvent struct {
	Time sim.Time
	Kind CaptureKind
	Pkt  *Packet
}

// SetCapture installs a per-event observer on this link direction — the
// library's tcpdump. Pass nil to remove. Capturing costs one call per
// packet event; uncaptured links pay only a nil check.
func (e *LinkEnd) SetCapture(fn func(CaptureEvent)) { e.dir.capture = fn }
