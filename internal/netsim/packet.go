// Package netsim provides a packet-level network simulation substrate: hosts,
// links with configurable delay/bandwidth and gray-failure injection, and a
// P4-like switch model (parser → ingress → traffic manager → egress) that
// in-switch applications such as FANcY hook into.
//
// The model mirrors the custom ns-3 switch the paper used for its software
// evaluation: packets are structs (not raw bytes) for speed, but FANcY
// control messages and tags are carried in their marshalled wire form so the
// protocol's encode/decode path is exercised end to end.
package netsim

import (
	"fmt"

	"fancy/internal/sim"
	"fancy/internal/wire"
)

// EntryID identifies a forwarding entry (in the paper's terms, a subset of
// the header space — typically a destination prefix). FANcY detects and
// localizes failures at entry granularity.
type EntryID uint32

// InvalidEntry marks packets that do not belong to any monitored entry,
// such as control messages.
const InvalidEntry EntryID = ^EntryID(0)

// Proto enumerates transport protocols used by the traffic generators.
type Proto uint8

// Transport protocols.
const (
	ProtoTCP Proto = iota
	ProtoUDP
	ProtoFancy // FANcY control message
)

// FlowID identifies a transport flow end to end.
type FlowID uint32

// TCPFlags is the subset of TCP flags the simplified stack uses.
type TCPFlags uint8

// FlagACK is the one TCP flag bit the stack sets: connections are implicit
// (no handshake, no teardown).
const FlagACK TCPFlags = 1 << 1

// Packet is the unit of transmission. Packets are passed by pointer and are
// borrowed for the duration of HandlePacket/OnIngress/OnEgress/OnForwarded;
// copy to retain. netsim recycles a pool-issued packet at the
// point where it dies (see PacketPool), so a pointer kept past the call may
// be a different packet by the time it is read; copy the fields — or the
// struct, and Ctl's bytes — instead. Handing a packet to Send or Inject
// gives it away for good, whether or not the call reports success.
type Packet struct {
	ID    uint64
	Flow  FlowID
	Entry EntryID
	Src   uint32 // IPv4 source address
	Dst   uint32 // IPv4 destination address
	Proto Proto
	Size  int // bytes on the wire, headers included

	// Transport fields (TCP).
	Seq   int64 // first payload byte carried
	Ack   int64 // cumulative ACK
	Len   int   // payload bytes
	Flags TCPFlags

	// FANcY fields. Tagged marks a packet counted by a FANcY session; Tag
	// is its 2-byte wire tag and TagKind the session machinery it belongs
	// to. Ctl carries a marshalled FANcY control message for ProtoFancy.
	Tagged  bool
	Tag     wire.Tag
	TagKind wire.SessionKind
	Ctl     []byte

	// SentAt records when the packet first entered a link, for latency
	// accounting in tests.
	SentAt sim.Time

	// ProbeWindow carries a measurement-window stamp for the baseline
	// probes of §2.4/§5.2 (0 = unstamped). It plays the role FANcY's
	// session tags play: making upstream and downstream count the same
	// packets in the same window despite in-flight delay.
	ProbeWindow int64

	// Intrusive link-lane fields (see direction in link.go): next packet
	// in the lane FIFO, the lane deadline (serialization end on the
	// transmit lane, arrival time on the receive lane), and whether the
	// egress hook already fired for this transmission.
	laneNext     *Packet
	laneAt       sim.Time
	laneEgressed bool

	// home is the pool that issued the packet and takes it back when it
	// dies; nil for literals, clones, and packets that were pinned by a
	// capture observer (see pool.go).
	home *PacketPool
}

// String summarizes the packet for debugging.
func (p *Packet) String() string {
	switch p.Proto {
	case ProtoFancy:
		return fmt.Sprintf("fancy-ctl(%dB)", p.Size)
	case ProtoUDP:
		return fmt.Sprintf("udp flow=%d entry=%d %dB", p.Flow, p.Entry, p.Size)
	default:
		return fmt.Sprintf("tcp flow=%d entry=%d seq=%d ack=%d len=%d flags=%03b",
			p.Flow, p.Entry, p.Seq, p.Ack, p.Len, p.Flags)
	}
}

// A Node is anything attachable to a link: a switch or a host.
type Node interface {
	// Name identifies the node in logs and errors.
	Name() string
	// Attach gives the node the transmit handle for one of its ports.
	Attach(port int, tx *LinkEnd)
	// Receive delivers a packet arriving on port.
	Receive(pkt *Packet, port int)
}

// IPv4 builds an address from dotted-quad octets, for readable tests.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// EntryAddr derives a deterministic destination address for an entry: each
// entry occupies its own /24, mirroring the paper's per-/24-prefix entries.
func EntryAddr(e EntryID, host byte) uint32 {
	return uint32(e)<<8 | uint32(host)
}
