package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnmarshal checks that arbitrary input never panics UnmarshalInto,
// that a decode into a fresh Message never allocates more elements than
// the input could hold (4 bytes per counter, at least 2 per target),
// accepted or not, and that anything it accepts re-marshals to a message
// it accepts again.
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid encodings of each message type.
	seeds := []*Message{
		{Header: Header{Type: MsgStart, Kind: KindDedicated, Session: 1, Link: 2, Unit: 3}},
		{Header: Header{Type: MsgStartACK, Kind: KindTree, Session: 9, Unit: TreeUnit}},
		{Header: Header{Type: MsgReport, Kind: KindDedicated, Session: 7}, Counters: []uint64{1, 2, 3}},
		{
			Header:  Header{Type: MsgStart, Kind: KindTree, Session: 5},
			Targets: []ZoomTarget{{Path: []uint16{1}}, {Path: []uint16{1, 7}}},
		},
		// Custom sessions: application-defined units above customUnitBase,
		// with Report payloads shaped by the application (here a size
		// histogram) rather than by the counter layout.
		{Header: Header{Type: MsgStart, Kind: KindCustom, Epoch: 3, Session: 4, Link: 1, Unit: 0xf000}},
		{Header: Header{Type: MsgStop, Kind: KindCustom, Epoch: 255, Session: 4, Unit: 0xf000}},
		{
			Header:   Header{Type: MsgReport, Kind: KindCustom, Epoch: 7, Session: 6, Unit: 0xf001},
			Counters: []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1 << 40},
		},
	}
	for _, m := range seeds {
		f.Add(m.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := new(Message)
		n, err := UnmarshalInto(data, m)
		if cap(m.Counters) > len(data)/4 || cap(m.Targets) > len(data)/2 {
			t.Fatalf("%d-byte input sized %d counters and %d targets", len(data), cap(m.Counters), cap(m.Targets))
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round trip: re-marshal and parse again; headers must agree.
		re := m.Marshal(nil)
		m2 := new(Message)
		if _, err := UnmarshalInto(re, m2); err != nil {
			t.Fatalf("re-marshal of accepted message rejected: %v", err)
		}
		if m2.Header != m.Header {
			t.Fatalf("headers differ after round trip: %+v vs %+v", m2.Header, m.Header)
		}
		if len(m2.Counters) != len(m.Counters) || len(m2.Targets) != len(m.Targets) {
			t.Fatal("payload shape differs after round trip")
		}
	})
}

// TestSingleBitFlipsDetected corrupts every bit of every byte of valid
// messages, one at a time — the exact fault the chaos injector's control
// corruption produces. Each flip must yield a recognized parse error
// (normally ErrChecksum; flips in the version or length fields may surface
// as ErrVersion/ErrTruncl first) or, at worst, a parse whose header is
// byte-identical to the original. What must never happen: a panic, or a
// silently different header steering a detector FSM.
func TestSingleBitFlipsDetected(t *testing.T) {
	msgs := []*Message{
		{Header: Header{Type: MsgStart, Kind: KindDedicated, Epoch: 1, Session: 3, Link: 1, Unit: 2}},
		{Header: Header{Type: MsgStartACK, Kind: KindTree, Epoch: 9, Session: 12, Unit: TreeUnit}},
		{
			Header:   Header{Type: MsgReport, Kind: KindDedicated, Epoch: 200, Session: 7},
			Counters: []uint64{42, 0, 1 << 31},
		},
		{
			Header:  Header{Type: MsgStart, Kind: KindTree, Epoch: 4, Session: 5},
			Targets: []ZoomTarget{{Path: []uint16{1}}, {Path: []uint16{1, 7}}},
		},
		{Header: Header{Type: MsgStop, Kind: KindCustom, Epoch: 17, Session: 9, Unit: 0xf000}},
	}
	known := []error{ErrShort, ErrChecksum, ErrVersion, ErrTruncl}
	for mi, m := range msgs {
		orig := m.Marshal(nil)
		for i := range orig {
			for bit := 0; bit < 8; bit++ {
				buf := append([]byte(nil), orig...)
				buf[i] ^= 1 << bit
				got := new(Message)
				if _, err := UnmarshalInto(buf, got); err != nil {
					ok := false
					for _, k := range known {
						if errors.Is(err, k) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("msg %d byte %d bit %d: unrecognized error %v", mi, i, bit, err)
					}
					continue
				}
				if got.Header != m.Header {
					t.Fatalf("msg %d byte %d bit %d: corrupted message parsed with a different header: %+v vs %+v",
						mi, i, bit, got.Header, m.Header)
				}
			}
		}
	}
}
