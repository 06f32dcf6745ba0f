package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgInvalid:  "invalid",
		MsgStart:    "start",
		MsgStartACK: "start-ack",
		MsgStop:     "stop",
		MsgReport:   "report",
		MsgType(99): "msgtype(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestSessionKindString(t *testing.T) {
	if KindDedicated.String() != "dedicated" || KindTree.String() != "tree" {
		t.Error("unexpected SessionKind strings")
	}
	if SessionKind(9).String() != "kind(9)" {
		t.Error("unexpected fallback SessionKind string")
	}
}

func TestTagDedicatedRoundTrip(t *testing.T) {
	for _, id := range []uint16{0, 1, 255, 256, 499, 65535} {
		tag := DedicatedTag(id)
		if got := tag.DedicatedID(); got != id {
			t.Errorf("DedicatedID round trip: got %d, want %d", got, id)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Header: Header{Type: MsgStart, Kind: KindDedicated, Session: 1, Link: 3, Unit: 499}},
		{Header: Header{Type: MsgStartACK, Kind: KindTree, Session: 0xdeadbeef, Link: 65535, Unit: TreeUnit}},
		{Header: Header{Type: MsgStop, Kind: KindTree, Session: 7, Link: 0}},
		{
			Header:   Header{Type: MsgReport, Kind: KindDedicated, Session: 42, Link: 9},
			Counters: []uint64{0, 1, 1 << 20, 0xffffffff},
		},
		{
			Header:   Header{Type: MsgStart, Kind: KindTree, Session: 5, Link: 2},
			Counters: []uint64{10, 20},
			Targets: []ZoomTarget{
				{Path: []uint16{1}},
				{Path: []uint16{1, 0}},
				{Path: []uint16{189, 3, 77}},
			},
		},
	}
	for i, m := range msgs {
		b := m.Marshal(nil)
		if len(b) != m.WireSize() {
			t.Errorf("msg %d: WireSize = %d, encoded = %d", i, m.WireSize(), len(b))
		}
		got := new(Message)
		n, err := UnmarshalInto(b, got)
		if err != nil {
			t.Fatalf("msg %d: UnmarshalInto: %v", i, err)
		}
		if n != len(b) {
			t.Errorf("msg %d: consumed %d of %d bytes", i, n, len(b))
		}
		if got.Header != m.Header {
			t.Errorf("msg %d: header = %+v, want %+v", i, got.Header, m.Header)
		}
		if !equalCounters(got.Counters, m.Counters) {
			t.Errorf("msg %d: counters = %v, want %v", i, got.Counters, m.Counters)
		}
		if !equalTargets(got.Targets, m.Targets) {
			t.Errorf("msg %d: targets = %v, want %v", i, got.Targets, m.Targets)
		}
	}
}

func equalCounters(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalTargets(a, b []ZoomTarget) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Path, b[i].Path) {
			return false
		}
	}
	return true
}

func TestMarshalAppendsToExisting(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	m := &Message{Header: Header{Type: MsgStop, Kind: KindTree, Session: 1, Link: 1}}
	b := m.Marshal(append([]byte(nil), prefix...))
	if !bytes.Equal(b[:2], prefix) {
		t.Error("Marshal must append, not overwrite")
	}
	if _, err := UnmarshalInto(b[2:], new(Message)); err != nil {
		t.Errorf("UnmarshalInto after prefix: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	m := &Message{Header: Header{Type: MsgReport, Kind: KindDedicated, Session: 1, Link: 1},
		Counters: []uint64{1, 2, 3}}
	b := m.Marshal(nil)

	var scratch Message
	if _, err := UnmarshalInto(b[:5], &scratch); err != ErrShort {
		t.Errorf("short buffer: err = %v, want ErrShort", err)
	}
	if _, err := UnmarshalInto(b[:len(b)-4], &scratch); err != ErrTruncl {
		t.Errorf("truncated payload: err = %v, want ErrTruncl", err)
	}

	bad := append([]byte(nil), b...)
	bad[0] = 77 // version
	if _, err := UnmarshalInto(bad, &scratch); err == nil {
		t.Error("bad version accepted")
	}

	for i := range b {
		flip := append([]byte(nil), b...)
		flip[i] ^= 0x01
		if flip[0] != Version {
			continue // version errors take precedence over checksum
		}
		if _, err := UnmarshalInto(flip, &scratch); err == nil {
			// A flip in the length field may produce ErrTruncl instead; any
			// error is fine, but silent acceptance is a checksum failure.
			t.Errorf("bit flip at byte %d accepted silently", i)
		}
	}
}

// TestUnmarshalIntoBoundsDeclaredTargets: a 20-byte frame with a valid
// checksum that declares 0xffff zoom targets and carries none is rejected
// without sizing the reused scratch for 65 535 targets.
func TestUnmarshalIntoBoundsDeclaredTargets(t *testing.T) {
	b := (&Message{Header: Header{Type: MsgStart, Kind: KindTree}}).Marshal(nil)
	binary.BigEndian.PutUint16(b[len(b)-2:], 0xffff) // target count
	binary.BigEndian.PutUint16(b[14:], 0)
	binary.BigEndian.PutUint16(b[14:], Checksum(b))
	if len(b) != 20 || Checksum(b) != 0 {
		t.Fatalf("built a %d-byte frame with checksum residue %#x", len(b), Checksum(b))
	}
	var m Message
	if _, err := UnmarshalInto(b, &m); err != ErrTruncl {
		t.Fatalf("err = %v, want ErrTruncl", err)
	}
	if cap(m.Targets) > len(b)/2 {
		t.Fatalf("cap(Targets) = %d after a %d-byte frame", cap(m.Targets), len(b))
	}
}

func TestChecksumProperties(t *testing.T) {
	if Checksum(nil) != 0xffff {
		t.Errorf("Checksum(nil) = %#x, want 0xffff", Checksum(nil))
	}
	// Odd-length buffers are padded with a zero byte.
	if Checksum([]byte{0x12}) != Checksum([]byte{0x12, 0x00}) {
		t.Error("odd-length checksum differs from zero-padded")
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary messages.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, kind uint8, session uint32, link, unit uint16, counters []uint64, rawPaths [][]uint16) bool {
		m := &Message{Header: Header{
			Type:    MsgType(typ%4 + 1),
			Kind:    SessionKind(kind%2 + 1),
			Session: session,
			Link:    link,
			Unit:    unit,
		}}
		if len(counters) > 512 {
			counters = counters[:512]
		}
		// Counters are 32-bit on the wire (the hardware register width).
		for i := range counters {
			counters[i] &= 0xffffffff
		}
		m.Counters = counters
		for _, p := range rawPaths {
			if len(p) > 8 {
				p = p[:8]
			}
			m.Targets = append(m.Targets, ZoomTarget{Path: p})
			if len(m.Targets) == 16 {
				break
			}
		}
		b := m.Marshal(nil)
		got := new(Message)
		n, err := UnmarshalInto(b, got)
		if err != nil || n != len(b) {
			return false
		}
		if got.Header != m.Header || !equalCounters(got.Counters, m.Counters) {
			return false
		}
		if len(got.Targets) != len(m.Targets) {
			return false
		}
		for i := range got.Targets {
			a, b := got.Targets[i].Path, m.Targets[i].Path
			if len(a) != len(b) {
				return false
			}
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: the checksum of any marshalled message verifies to zero, and any
// single-byte corruption in the counter payload is detected.
func TestPropertyChecksumDetectsCorruption(t *testing.T) {
	f := func(session uint32, counters []uint64, corrupt uint8, xor uint8) bool {
		if len(counters) == 0 || xor == 0 {
			return true
		}
		if len(counters) > 64 {
			counters = counters[:64]
		}
		m := &Message{Header: Header{Type: MsgReport, Kind: KindTree, Session: session, Link: 1},
			Counters: counters}
		b := m.Marshal(nil)
		if Checksum(b) != 0 {
			return false
		}
		// Corrupt one payload byte (past the header, inside counters).
		idx := headerSize + 2 + int(corrupt)%(4*len(counters))
		b[idx] ^= xor
		_, err := UnmarshalInto(b, new(Message))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

func TestReportSizeMatchesPaperOverhead(t *testing.T) {
	// §5.3: "the hash-tree counter that carries 5320 B in the pipelined
	// version of the zooming algorithm" — exactly 7 nodes × 190 counters
	// × 4 B for the width-190 depth-3 split-2 tree. Our Report adds only
	// its fixed protocol header on top of those 5320 payload bytes.
	m := &Message{Header: Header{Type: MsgReport, Kind: KindTree}}
	m.Counters = make([]uint64, 7*190)
	size := m.WireSize()
	if size < 5320 || size > 5320+64 {
		t.Errorf("tree report size = %d B, want 5320 B of counters + a small header", size)
	}
}

func BenchmarkMarshalReport(b *testing.B) {
	m := &Message{Header: Header{Type: MsgReport, Kind: KindDedicated, Session: 9, Link: 1},
		Counters: make([]uint64, 500)}
	buf := make([]byte, 0, m.WireSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Marshal(buf[:0])
	}
}

func BenchmarkUnmarshalReport(b *testing.B) {
	m := &Message{Header: Header{Type: MsgReport, Kind: KindDedicated, Session: 9, Link: 1},
		Counters: make([]uint64, 500)}
	buf := m.Marshal(nil)
	var scratch Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalInto(buf, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}
