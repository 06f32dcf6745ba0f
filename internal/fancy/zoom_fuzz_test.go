package fancy

import (
	"math/rand"
	"slices"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
)

// FuzzZoomWaves drives a tree sender, pipelined or staged, through
// fuzz-chosen per-session loss patterns. After every report it checks, for
// a pipelined tree, the invariant its receiver is built on: the advertised
// targets are distinct and none prefixes another, and targets sharing a
// head share a depth. For both variants it then checks that a receiver
// reset with the sender's targets and fed the sender's tags for random
// entries reports exactly the sender's counters: the root and zoom nodes,
// or the staged tree's one node at whatever stage it has reached.
//
// config picks the tree (bit 0: w8/d3/k2 or w8/d4/k3; staged, w8/d3 or
// w8/d4), the selection policy (bit 1: SelectRandom) and the variant
// (bit 2: staged); each two bytes of losses are one session, bit e marking
// entry e of zoomFuzzEntries as lossy.
func FuzzZoomWaves(f *testing.F) {
	f.Add(uint8(0), []byte{0x01, 0, 0x01, 0, 0x01, 0, 0x01, 0})
	f.Add(uint8(1), []byte{0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80})
	f.Add(uint8(2), []byte{0x11, 0x01, 0x22, 0x02, 0x11, 0x01, 0, 0, 0x11, 0x01})
	f.Add(uint8(3), []byte{0xff, 0xff, 0x0f, 0, 0x0f, 0, 0x0f, 0, 0x0f, 0})
	f.Add(uint8(1), []byte{0x55, 0x05, 0x55, 0x05, 0xaa, 0x0a, 0x55, 0x05, 0x55, 0x05, 0x55, 0x05})
	f.Add(uint8(4), []byte{0x01, 0, 0x01, 0, 0x01, 0, 0x01, 0, 0, 0, 0x01, 0})
	f.Add(uint8(6), []byte{0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80})
	f.Add(uint8(5), []byte{0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0x03, 0x80, 0xff, 0xff, 0x03, 0x80})
	f.Fuzz(func(t *testing.T, config uint8, losses []byte) {
		params := tree.Params{Width: 8, Depth: 3, Split: 2, Pipelined: true}
		if config&1 != 0 {
			params = tree.Params{Width: 8, Depth: 4, Split: 3, Pipelined: true}
		}
		if config&4 != 0 {
			params.Split, params.Pipelined = 1, false
		}
		h := newZoomHarness(t, params, int64(config)+1)
		if config&2 != 0 {
			switch snd := h.snd.(type) {
			case *pipelinedSender:
				snd.selection = SelectRandom
			case *stagedSender:
				snd.selection = SelectRandom
			}
		}
		rng := rand.New(rand.NewSource(int64(len(losses))))
		for s := 0; s+1 < len(losses) && s < 128; s += 2 {
			mask := uint16(losses[s]) | uint16(losses[s+1])<<8
			sent := make(map[netsim.EntryID]int, len(zoomFuzzEntries))
			delivered := make(map[netsim.EntryID]int, len(zoomFuzzEntries))
			for i, e := range zoomFuzzEntries {
				sent[e] = 4 + i%5
				delivered[e] = sent[e]
				if mask&(1<<i) != 0 {
					delivered[e] -= 1 + i%3
				}
			}
			h.session(sent, delivered)
			if snd, ok := h.snd.(*pipelinedSender); ok {
				checkZoomTargets(t, s/2, snd.zooms)
			}
			checkReceiverMirrors(t, s/2, h, rng)
		}
	})
}

// zoomFuzzEntries are the entries FuzzZoomWaves sends in every session.
var zoomFuzzEntries = []netsim.EntryID{
	3, 17, 100, 101, 205, 333, 404, 512, 777, 1000, 1234, 2048, 4096, 9999, 31337, 65535,
}

// checkZoomTargets fails unless the zooms' paths are distinct and pairwise
// non-prefix and every two sharing a head have the same length.
func checkZoomTargets(t *testing.T, session int, zooms []zoomNode) {
	t.Helper()
	for i, a := range zooms {
		for _, b := range zooms[i+1:] {
			if slices.Equal(a.path, b.path) || isPrefix(a.path, b.path) || isPrefix(b.path, a.path) {
				t.Fatalf("session %d: targets %v and %v nest", session, a.path, b.path)
			}
			if a.path[0] == b.path[0] && len(a.path) != len(b.path) {
				t.Fatalf("session %d: wave %d has zooms at depths %d and %d", session, a.path[0], len(a.path), len(b.path))
			}
		}
	}
}

// checkReceiverMirrors resets the sender and a fresh receiver for the next
// session's targets, tags packets of random entries, delivers every tag,
// and fails unless the receiver's snapshot equals the sender's counters.
// The harness resets the sender again before its next session.
func checkReceiverMirrors(t *testing.T, session int, h *zoomHarness, rng *rand.Rand) {
	t.Helper()
	targets := h.snd.resetSession(nil)
	rcv := h.det.newTreeReceiver()
	rcv.resetSession(targets)
	for i := 0; i < 256; i++ {
		pkt := &netsim.Packet{Entry: netsim.EntryID(rng.Intn(1 << 16))}
		if tag, ok := h.snd.tagPacket(pkt); ok {
			rcv.countTag(tag)
		}
	}
	var want []uint64
	switch snd := h.snd.(type) {
	case *pipelinedSender:
		want = append(want, snd.root...)
		for _, z := range snd.zooms {
			want = append(want, z.counters...)
		}
	case *stagedSender:
		want = append(want, snd.node...)
	}
	if got := rcv.appendSnapshot(nil); !slices.Equal(got, want) {
		t.Fatalf("session %d, targets %v: receiver counted %v, sender %v", session, targets, got, want)
	}
}
