package netsim

import (
	"fmt"
	"strings"
	"testing"

	"fancy/internal/sim"
)

func TestCaptureObservesAllOutcomes(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: sim.Millisecond, RateBps: 1e6, QueueBytes: 3500})
	var byKind [CaptureChaosDrop + 1]uint64
	byEntry := make(map[EntryID]uint64) // delivered packets per entry
	var bytes uint64                    // delivered bytes
	l.AB.SetCapture(func(ev CaptureEvent) {
		byKind[ev.Kind]++
		if ev.Kind == CaptureDeliver {
			byEntry[ev.Pkt.Entry]++
			bytes += uint64(ev.Pkt.Size)
		}
	})
	l.AB.SetFailure(FailEntries(1, 0, 1.0, 9))

	a.tx.Send(&Packet{Entry: 5, Size: 1000}) // delivered
	a.tx.Send(&Packet{Entry: 9, Size: 1000}) // failure drop
	a.tx.Send(&Packet{Entry: 5, Size: 1000}) // delivered
	a.tx.Send(&Packet{Entry: 5, Size: 1000}) // congestion drop (queue full at 3500B)
	s.Run(0)

	if byKind[CaptureSend] != 3 {
		t.Errorf("sends = %d, want 3", byKind[CaptureSend])
	}
	if byKind[CaptureDeliver] != 2 {
		t.Errorf("delivers = %d, want 2", byKind[CaptureDeliver])
	}
	if byKind[CaptureFailureDrop] != 1 {
		t.Errorf("failure drops = %d, want 1", byKind[CaptureFailureDrop])
	}
	if byKind[CaptureCongestionDrop] != 1 {
		t.Errorf("congestion drops = %d, want 1", byKind[CaptureCongestionDrop])
	}
	if byEntry[5] != 2 || bytes != 2000 {
		t.Errorf("per-entry = %v bytes = %d", byEntry, bytes)
	}
}

func TestCaptureWriterFormat(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	var buf strings.Builder
	l.AB.SetCapture(func(ev CaptureEvent) { fmt.Fprintf(&buf, "%v %v %v\n", ev.Time, ev.Kind, ev.Pkt) })
	a.tx.Send(&Packet{Entry: 7, Proto: ProtoUDP, Size: 100})
	s.Run(0)
	out := buf.String()
	if !strings.Contains(out, "send") || !strings.Contains(out, "deliver") {
		t.Errorf("capture log missing events:\n%s", out)
	}
	if !strings.Contains(out, "entry=7") {
		t.Errorf("capture log missing packet summary:\n%s", out)
	}
}

func TestCaptureRemovable(t *testing.T) {
	s := sim.New(1)
	a := &sinkNode{name: "a", s: s}
	b := &sinkNode{name: "b", s: s}
	l := Connect(s, a, 0, b, 0, LinkConfig{Delay: 0, RateBps: 1e9})
	n := 0
	l.AB.SetCapture(func(CaptureEvent) { n++ })
	a.tx.Send(&Packet{Size: 100})
	s.Run(0)
	if n == 0 {
		t.Fatal("capture saw nothing")
	}
	l.AB.SetCapture(nil)
	before := n
	a.tx.Send(&Packet{Size: 100})
	s.Run(0)
	if n != before {
		t.Error("capture fired after removal")
	}
}

func TestCaptureKindString(t *testing.T) {
	for k, want := range map[CaptureKind]string{
		CaptureSend: "send", CaptureDeliver: "deliver",
		CaptureCongestionDrop: "congestion-drop", CaptureFailureDrop: "failure-drop",
		CaptureKind(9): "capture(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}
