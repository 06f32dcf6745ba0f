package fancy

// Control messages a receiver cannot hold: a tree Start whose zoom targets
// lie outside the configured tree, and a Start of another unit's kind. Both
// are dropped and counted as corrupted, and no control input may panic the
// detector.

import (
	"fmt"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// newCtlDetector builds a detector with one dedicated entry (10) and a
// w8/d3 tree, pipelined or staged, that monitors port 1 and listens there
// with a custom receiver registered.
func newCtlDetector(t testing.TB, pipelined bool) *Detector {
	t.Helper()
	s := sim.New(1)
	det, err := NewDetector(s, netsim.NewSwitch(s, "sw", 2), Config{
		HighPriority: []netsim.EntryID{10},
		Tree:         tree.Params{Width: 8, Depth: 3, Split: 2, Pipelined: pipelined},
		TreeSeed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	det.MonitorPort(1)
	det.ListenCustom(1, NewSizeHistogramUnit())
	return det
}

// deliverCtl hands m to det's port 1 as a marshalled control packet.
func deliverCtl(det *Detector, m *wire.Message) {
	det.OnIngress(&netsim.Packet{Proto: netsim.ProtoFancy, Entry: netsim.InvalidEntry, Ctl: m.Marshal(nil)}, 1)
}

// treeStart is session 1's tree Start with targets.
func treeStart(targets ...[]uint16) *wire.Message {
	return &wire.Message{
		Header:  wire.Header{Type: wire.MsgStart, Kind: wire.KindTree, Epoch: 1, Session: 1, Link: 1, Unit: wire.TreeUnit},
		Targets: wire2ZoomTargets(targets),
	}
}

// TestStartOutsideTreeDropped: a tree Start whose targets a w8/d3 tree
// cannot hold — an empty path, a path of 3 indices, an index of 8 or more,
// 255 targets — is counted as corrupted, installs no receiver and is not
// ACKed, and the tagged packets that follow it are ignored. Before the
// check the empty path panicked the pipelined receiver at the Start and an
// index beyond the width at the next tagged packet; the other cases were
// adopted. 254 targets of paths up to 2 indices long fit.
func TestStartOutsideTreeDropped(t *testing.T) {
	many := func(n int) [][]uint16 {
		paths := make([][]uint16, n)
		for i := range paths {
			paths[i] = []uint16{uint16(i % 8), uint16(i / 8 % 8)}
		}
		return paths
	}
	bad := map[string][][]uint16{
		"empty path":        {{3}, {}},
		"path of depth":     {{1, 2, 3}},
		"head beyond width": {{200}},
		"index at width":    {{1, 8}},
		"255 targets":       many(255),
	}
	for _, pipelined := range []bool{true, false} {
		for name, targets := range bad {
			t.Run(fmt.Sprintf("pipelined=%v/%s", pipelined, name), func(t *testing.T) {
				det := newCtlDetector(t, pipelined)
				deliverCtl(det, treeStart(targets...))
				for node := uint8(0); node < 3; node++ {
					det.OnIngress(&netsim.Packet{Tagged: true, TagKind: wire.KindTree, Tag: tagFor(node, 0)}, 1)
				}
				if got := det.Stats().CtlCorrupted; got != 1 {
					t.Errorf("CtlCorrupted = %d, want 1", got)
				}
				if det.listeners[1].tree != nil || det.CtlMsgsSent != 0 {
					t.Errorf("the Start installed a receiver (%v) or was answered (%d messages)", det.listeners[1].tree != nil, det.CtlMsgsSent)
				}
			})
		}
		det := newCtlDetector(t, pipelined)
		deliverCtl(det, treeStart(many(254)...))
		det.OnIngress(&netsim.Packet{Tagged: true, TagKind: wire.KindTree, Tag: tagFor(254, 7)}, 1)
		if det.Stats().CtlCorrupted != 0 || det.listeners[1].tree == nil || det.CtlMsgsSent != 1 {
			t.Errorf("pipelined=%v: a Start with 254 targets the tree holds was not adopted and ACKed", pipelined)
		}
	}
}

// TestStartOfAnotherKindDropped: a Start whose kind is not its unit's is
// counted as corrupted and leaves the unit's cell empty, so the unit's own
// Start is answered. Before the check a tree Start on dedicated unit 0
// installed a tree receiver there (and a dedicated Start on the tree or the
// custom unit a dedicated one), and every later Start of the unit went
// unanswered until Restart.
func TestStartOfAnotherKindDropped(t *testing.T) {
	for _, c := range []struct {
		unit        uint16
		wrong, kind wire.SessionKind
	}{
		{0, wire.KindTree, wire.KindDedicated},
		{wire.TreeUnit, wire.KindDedicated, wire.KindTree},
		{customUnitBase, wire.KindDedicated, wire.KindCustom},
		{customUnitBase, wire.KindTree, wire.KindCustom},
	} {
		det := newCtlDetector(t, true)
		start := &wire.Message{Header: wire.Header{Type: wire.MsgStart, Kind: c.wrong, Epoch: 1, Session: 1, Link: 1, Unit: c.unit}}
		deliverCtl(det, start)
		if det.Stats().CtlCorrupted != 1 || det.CtlMsgsSent != 0 {
			t.Errorf("unit %#x: %v Start counted %d corrupted and answered with %d messages, want 1 and 0",
				c.unit, c.wrong, det.Stats().CtlCorrupted, det.CtlMsgsSent)
		}
		start.Kind = c.kind
		deliverCtl(det, start)
		fsm := det.listeners[1].unit(c.unit)
		if det.CtlMsgsSent != 1 || fsm == nil || fsm.kind != c.kind || fsm.state != rCounting {
			t.Errorf("unit %#x: its own %v Start after a %v one was not adopted and ACKed", c.unit, c.kind, c.wrong)
		}
	}
}

// FuzzDetectorControl builds a control message from fuzz-chosen header
// fields, counters and zoom targets, delivers it to a detector that
// monitors and listens on port 1, feeds it tagged packets of every kind
// and runs its timers: nothing may panic. The detector's own sessions are
// first ACKed and fed traffic, so a Report for session 1 of unit 0 or the
// tree unit reaches a sender that waits for it with counts of its own.
//
// targets is read as zoom targets, each a length byte (mod 5) and that many
// indices; tags as (kind, node, counter) triples, the kind mod 4.
func FuzzDetectorControl(f *testing.F) {
	start, treeKind := uint8(wire.MsgStart), uint8(wire.KindTree)
	seedTags := []byte{2, 0, 3, 2, 1, 0, 2, 2, 7, 1, 0, 0, 3, 0, 5, 0, 9, 9}
	f.Add(start, treeKind, uint8(1), uint32(1), wire.TreeUnit, false, []byte{}, []byte{1, 3, 0}, seedTags) // an empty path
	f.Add(start, treeKind, uint8(1), uint32(1), wire.TreeUnit, false, []byte{}, []byte{1, 200}, seedTags)  // a head beyond the width
	f.Add(start, treeKind, uint8(1), uint32(1), uint16(0), true, []byte{}, []byte{}, seedTags)             // another unit's kind
	f.Add(start, treeKind, uint8(1), uint32(2), wire.TreeUnit, true, []byte{}, []byte{2, 1, 2}, seedTags)
	f.Add(uint8(wire.MsgReport), treeKind, uint8(1), uint32(1), wire.TreeUnit, false, []byte{0, 1, 2, 3, 0, 1, 2, 3, 9, 9}, []byte{}, seedTags)
	f.Add(uint8(wire.MsgReport), treeKind, uint8(1), uint32(1), wire.TreeUnit, true, []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{}, seedTags)
	f.Add(uint8(wire.MsgReport), uint8(wire.KindDedicated), uint8(1), uint32(1), uint16(0), false, []byte{0, 1}, []byte{}, seedTags)
	f.Fuzz(func(t *testing.T, typ, kind, epoch uint8, session uint32, unit uint16, staged bool, counters, targets, tags []byte) {
		det := newCtlDetector(t, !staged)
		det.s.Run(sim.Millisecond) // every unit's session 1 is open
		for _, u := range []struct {
			kind wire.SessionKind
			unit uint16
		}{{wire.KindDedicated, 0}, {wire.KindTree, wire.TreeUnit}} {
			deliverCtl(det, &wire.Message{Header: wire.Header{Type: wire.MsgStartACK, Kind: u.kind, Epoch: 1, Session: 1, Link: 1, Unit: u.unit}})
		}
		for e := netsim.EntryID(0); e < 64; e++ {
			det.OnEgress(&netsim.Packet{Entry: e, Size: 100}, 1)
		}
		det.s.Run(DefaultZoomingInterval + 10*sim.Millisecond)
		if mon := det.monitors[1]; mon.tree.state != sWaitReport || mon.dedicated[0].state != sWaitReport || mon.tree.session != 1 {
			t.Fatal("the detector's own units are not waiting for session 1's Report")
		}

		m := &wire.Message{Header: wire.Header{
			Type: wire.MsgType(typ), Kind: wire.SessionKind(kind), Epoch: epoch, Session: session, Link: 1, Unit: unit,
		}}
		for _, c := range counters {
			m.Counters = append(m.Counters, uint64(c))
		}
		for len(targets) > 0 {
			n := min(int(targets[0])%5, len(targets)-1)
			m.Targets = append(m.Targets, wire.ZoomTarget{Path: make([]uint16, n)})
			for i := range n {
				m.Targets[len(m.Targets)-1].Path[i] = uint16(targets[1+i])
			}
			targets = targets[1+n:]
		}
		deliverCtl(det, m)
		for ; len(tags) >= 3; tags = tags[3:] {
			det.OnIngress(&netsim.Packet{
				Entry: 10, Size: 100, Tagged: true,
				TagKind: wire.SessionKind(tags[0] % 4), Tag: wire.Tag{Node: tags[1], Counter: tags[2]},
			}, 1)
		}
		det.s.Run(det.s.Now() + sim.Second)
	})
}
