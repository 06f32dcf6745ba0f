// Package wire defines the on-the-wire formats of the FANcY inter-switch
// counting protocol.
//
// FANcY exchanges four control messages per counting session (Figure 4 of
// the paper): Start, StartACK, Stop and Report. Data packets that must be
// counted by the downstream switch carry a 2-byte tag identifying the
// counter to increment — for dedicated counters the tag is the 16-bit
// counter ID, for the hash-based tree one byte selects the tree node and the
// other the counter within the node (§5.3).
//
// The encoding uses network byte order throughout and a 16-bit ones'
// complement checksum (the Internet checksum) so that corrupted control
// messages are discarded rather than mis-parsed, mirroring how the Tofino
// prototype validates recirculated headers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType enumerates FANcY control message types.
type MsgType uint8

// Control message types of the counting protocol (Figure 3).
const (
	MsgInvalid  MsgType = iota
	MsgStart            // upstream → downstream: open a counting session
	MsgStartACK         // downstream → upstream: session accepted, counters reset
	MsgStop             // upstream → downstream: close the session
	MsgReport           // downstream → upstream: counter values for the session
)

var msgNames = [...]string{"invalid", "start", "start-ack", "stop", "report"}

func (m MsgType) String() string {
	if int(m) < len(msgNames) {
		return msgNames[m]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(m))
}

// SessionKind distinguishes the two counting machineries that share the
// protocol: dedicated per-entry counters and the hash-based tree.
type SessionKind uint8

// Session kinds.
const (
	KindDedicated SessionKind = 1
	KindTree      SessionKind = 2
	// KindCustom marks application-defined sessions that synchronize
	// arbitrary state across switches (§4.1's extensibility).
	KindCustom SessionKind = 3
)

func (k SessionKind) String() string {
	switch k {
	case KindDedicated:
		return "dedicated"
	case KindTree:
		return "tree"
	case KindCustom:
		return "custom"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Version is the protocol version encoded in every control message.
// Version 2 added the epoch (generation) byte in the former pad slot, so a
// rebooted peer's stale messages are rejected instead of corrupting the
// successor's sessions.
const Version = 2

// Errors returned by UnmarshalInto.
var (
	ErrShort    = errors.New("wire: buffer too short")
	ErrChecksum = errors.New("wire: checksum mismatch")
	ErrVersion  = errors.New("wire: unsupported version")
	ErrTruncl   = errors.New("wire: truncated payload")
)

// Tag is the 2-byte per-packet tag FANcY adds to counted packets.
//
// For dedicated counters, Node and Counter together hold the 16-bit entry
// counter ID (Node is the high byte). For tree sessions, Node identifies the
// tree node the packet maps to in the current zoom configuration (pipelined:
// the one zoom whose path prefixes the packet's, else 0, the root;
// non-pipelined: the zooming stage) and Counter the index within that node.
type Tag struct {
	Node    uint8
	Counter uint8
}

// DedicatedTag builds a Tag carrying a 16-bit dedicated counter ID.
func DedicatedTag(id uint16) Tag {
	return Tag{Node: uint8(id >> 8), Counter: uint8(id)}
}

// DedicatedID recovers the 16-bit dedicated counter ID from a Tag.
func (t Tag) DedicatedID() uint16 { return uint16(t.Node)<<8 | uint16(t.Counter) }

// TagSize is the wire size of a Tag in bytes (§5.3: 2 bytes, 0.13 % overhead
// on a 1500 B packet).
const TagSize = 2

// ZoomTarget describes one active zoom in a tree session's Start message:
// the partial hash path being explored. The downstream switch uses the list
// of targets to map tag node IDs back to tree positions, so it never has to
// hash packets itself (§4.2).
type ZoomTarget struct {
	// Path is the sequence of counter indices from the root to (and
	// including) the counter being zoomed into. Its length is the level at
	// which the new child node sits.
	Path []uint16
}

// Header is the fixed preamble of every FANcY control message.
type Header struct {
	Type    MsgType
	Kind    SessionKind
	Epoch   uint8  // sender generation; receivers echo it back (see below)
	Session uint32 // session sequence number, per (link, kind, unit)
	Link    uint16 // upstream port / link identifier
	Unit    uint16 // sub-state-machine index: dedicated entry slot, or TreeUnit

	// Epoch semantics: the upstream stamps Start/Stop with its current
	// generation number, which changes when the device reboots and loses
	// all session state. The downstream adopts the epoch from Start and
	// echoes it in StartACK/Report. Both sides discard messages carrying a
	// foreign epoch, so a rebooted peer's stale responses cannot complete
	// (and mis-compare) a successor session that happens to reuse the same
	// session number — the pair re-synchronizes on the next Start instead.
}

// TreeUnit is the Unit value of the per-port hash-based-tree session (the
// dedicated entries occupy units 0..n-1).
const TreeUnit uint16 = 0xffff

// headerSize is version(1)+type(1)+kind(1)+epoch(1)+session(4)+link(2)+unit(2)+len(2)+csum(2).
const headerSize = 16

// Message is a fully parsed FANcY control message.
type Message struct {
	Header

	// Counters carries the Report payload: one value per counter, in
	// counter-ID order. For tree reports the layout is the concatenation of
	// the root node followed by each active zoom node in ZoomTarget order.
	// Values are 32-bit on the wire, the register width of the hardware
	// design (Appendix B.2) — a width-190 depth-3 split-2 pipelined tree's
	// report is then exactly the 5320 B the paper's §5.3 quotes.
	Counters []uint64

	// Targets carries the zoom configuration in tree Start messages.
	Targets []ZoomTarget
}

// Marshal encodes m, appending to dst (which may be nil) and returning the
// extended buffer. Callers that know Size() can pre-allocate dst exactly;
// the payload is appended in place either way (no scratch buffer), with
// the length and checksum backfilled into the header.
func (m *Message) Marshal(dst []byte) []byte {
	start := len(dst)
	dst = append(dst,
		Version, byte(m.Type), byte(m.Kind), m.Epoch,
		0, 0, 0, 0, // session
		0, 0, // link
		0, 0, // unit
		0, 0, // payload length
		0, 0, // checksum
	)
	dst = m.appendPayload(dst)
	binary.BigEndian.PutUint32(dst[start+4:], m.Session)
	binary.BigEndian.PutUint16(dst[start+8:], m.Link)
	binary.BigEndian.PutUint16(dst[start+10:], m.Unit)
	binary.BigEndian.PutUint16(dst[start+12:], uint16(len(dst)-start-headerSize))
	csum := Checksum(dst[start:])
	binary.BigEndian.PutUint16(dst[start+14:], csum)
	return dst
}

func (m *Message) appendPayload(b []byte) []byte {
	// Counter block: u16 count, then count u32 values (saturating — a
	// single 50 ms session cannot overflow 2^32 packets on any real link).
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Counters)))
	for _, c := range m.Counters {
		if c > 0xffffffff {
			c = 0xffffffff
		}
		b = binary.BigEndian.AppendUint32(b, uint32(c))
	}
	// Target block: u16 count, then per target u16 path length + path.
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Targets)))
	for _, t := range m.Targets {
		b = binary.BigEndian.AppendUint16(b, uint16(len(t.Path)))
		for _, p := range t.Path {
			b = binary.BigEndian.AppendUint16(b, p)
		}
	}
	return b
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Element values are overwritten by the caller.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// UnmarshalInto parses a control message from b into m, reusing the capacity
// of m.Counters, m.Targets and their Path slices, and returns the number of
// bytes consumed. A long-lived scratch Message makes steady-state parsing
// allocation-free.
//
// The decoded slices are only valid until the next UnmarshalInto on the same
// m: consumers that retain m.Counters, m.Targets or a Path beyond the call
// that handed them the message must copy them. On error, m holds partially
// decoded garbage and must not be read.
func UnmarshalInto(b []byte, m *Message) (int, error) {
	if len(b) < headerSize {
		return 0, ErrShort
	}
	if b[0] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, b[0])
	}
	plen := int(binary.BigEndian.Uint16(b[12:]))
	total := headerSize + plen
	if len(b) < total {
		return 0, ErrTruncl
	}
	if Checksum(b[:total]) != 0 {
		return 0, ErrChecksum
	}
	m.Header = Header{
		Type:    MsgType(b[1]),
		Kind:    SessionKind(b[2]),
		Epoch:   b[3],
		Session: binary.BigEndian.Uint32(b[4:]),
		Link:    binary.BigEndian.Uint16(b[8:]),
		Unit:    binary.BigEndian.Uint16(b[10:]),
	}
	p := b[headerSize:total]
	if len(p) < 2 {
		return 0, ErrTruncl
	}
	nc := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < nc*4 {
		return 0, ErrTruncl
	}
	m.Counters = grow(m.Counters, nc)
	for i := range m.Counters {
		m.Counters[i] = uint64(binary.BigEndian.Uint32(p))
		p = p[4:]
	}
	if len(p) < 2 {
		return 0, ErrTruncl
	}
	nt := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	// Every target carries at least its 2-byte path length; checking that
	// before sizing m.Targets bounds the allocation by the frame.
	if len(p) < nt*2 {
		return 0, ErrTruncl
	}
	m.Targets = grow(m.Targets, nt)
	for i := range m.Targets {
		if len(p) < 2 {
			return 0, ErrTruncl
		}
		np := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if len(p) < np*2 {
			return 0, ErrTruncl
		}
		path := grow(m.Targets[i].Path, np)
		for j := range path {
			path[j] = binary.BigEndian.Uint16(p)
			p = p[2:]
		}
		m.Targets[i].Path = path
	}
	return total, nil
}

// WireSize returns the encoded size of the message in bytes without
// allocating, used by the overhead analysis (§5.3).
func (m *Message) WireSize() int {
	n := headerSize + 2 + 4*len(m.Counters) + 2
	for _, t := range m.Targets {
		n += 2 + 2*len(t.Path)
	}
	return n
}

// Checksum computes the 16-bit ones' complement Internet checksum over b.
// A buffer whose checksum field is filled in verifies to zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
