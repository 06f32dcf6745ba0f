package fleet

// Deterministic binary wire format for the replicated-log consensus
// messages exchanged between correlator replicas over the management
// network (mgmt.DgramConsensus payloads).
//
// The in-process simulator could pass structs by pointer, but real replicas
// exchange bytes — and bytes are what a fuzzer can attack. A message is a
// fixed header (internal/codec primitives, absent optionals a zero flag
// byte) followed, when it carries a log entry, by that entry's state frame
// (state.go) verbatim: the sender appends the bytes it already holds, the
// receiver checks them in place (decodeState with no destination) and keeps
// them as bytes. Nothing is re-serialised along the way, and arbitrary input
// can produce an error but never a panic or an allocation beyond the input's
// size (see FuzzDecodeConsensus).
//
// Neither side makes per-message garbage: the receiver decodes the header
// into a value and the entry into its own buffer, and copies out only an
// entry it stores; the sender encodes and boxes a message once and ships
// those immutable bytes to every peer and on every retransmission of it
// (replica.encoded).

import (
	"errors"

	"fancy/internal/codec"
)

// errWire rejects malformed consensus bytes.
var errWire = errors.New("fleet: malformed consensus message")

// wireVersion guards against cross-version replica traffic.
const wireVersion = 1

// consKind tags a consensus message.
type consKind uint8

// Consensus message kinds: the Paxos prepare/promise election pair, the
// accept/accepted replication pair, the stale-ballot nack, and the leader
// beat that carries the commit frontier.
const (
	consPrepare consKind = iota
	consPromise
	consAccept
	consAccepted
	consNack
	consBeat
)

func (k consKind) String() string {
	switch k {
	case consPrepare:
		return "prepare"
	case consPromise:
		return "promise"
	case consAccept:
		return "accept"
	case consAccepted:
		return "accepted"
	case consNack:
		return "nack"
	case consBeat:
		return "beat"
	}
	return "unknown"
}

// logEntry is one replicated-log record. Every entry carries a complete
// correlator state frame: committing entry k therefore subsumes every entry
// before it, which is the log's built-in compaction — an acceptor persists
// only its highest accepted entry, and the snapshot is the last committed
// entry (the frame embeds the management server's sequencing state, so
// transport-level dedup survives failover too).
type logEntry struct {
	Index  uint64 // log position, 1-based
	Ballot uint64 // ballot under which the entry was proposed
	Note   []byte // human-readable trigger ("verdict seattle>sunnyvale", ...), immutable
	Cp     []byte // the state frame, immutable once built; nil = none
}

// keep copies a received entry out of the buffer it was decoded into, for a
// handler that stores it (nil stays nil). Its byte strings go on aliasing
// the datagram, which is immutable.
func (e *logEntry) keep() *logEntry {
	if e == nil {
		return nil
	}
	c := *e
	return &c
}

// follows reports whether e comes after o in the order Paxos ranks accepted
// values by: higher ballot first, then higher index within a ballot. Every
// entry follows nil. A new leader may reuse an index at which an acceptor
// still holds an older ballot's entry, so the index alone cannot decide.
func (e *logEntry) follows(o *logEntry) bool {
	return o == nil || e.Ballot > o.Ballot || e.Ballot == o.Ballot && e.Index > o.Index
}

// consMsg is one consensus datagram payload.
type consMsg struct {
	Kind   consKind
	From   uint8  // sender replica id
	Ballot uint64 // sender's ballot (prepare/accept) or promised ballot (nack)
	Index  uint64 // accepted/commit index, per kind
	// AccBallot is, in a promise, the ballot of the accepted entry being
	// reported back to the candidate (0 = none).
	AccBallot uint64
	// Entry is the accept payload, promise report or beat retransmit. Two
	// messages with the same fields and the same Entry pointer encode to the
	// same bytes: entries are immutable.
	Entry *logEntry
}

// encodeConsensus serializes a consensus message canonically.
func encodeConsensus(m *consMsg) []byte {
	size := 40 // header bound: 3 bytes, three uvarints, the entry flag
	if e := m.Entry; e != nil {
		size += 24 + len(e.Note) + len(e.Cp)
	}
	w := codec.Writer{B: make([]byte, 0, size)}
	w.Byte(wireVersion)
	w.Byte(byte(m.Kind))
	w.Byte(m.From)
	w.Uvarint(m.Ballot)
	w.Uvarint(m.Index)
	w.Uvarint(m.AccBallot)
	e := m.Entry
	w.Bool(e != nil)
	if e != nil {
		w.Uvarint(e.Index)
		w.Uvarint(e.Ballot)
		w.Bytes(e.Note)
		w.Bool(e.Cp != nil)
		w.B = append(w.B, e.Cp...)
	}
	return w.B
}

// decodeConsensus parses a consensus message into a value, rejecting
// malformed or trailing bytes. An entry's header is decoded into *e, which
// the message then points at, and its state frame is checked in place and
// kept as the bytes it arrived in: e's Note and Cp alias b. Nothing is
// allocated but what checking a decision-log frame costs (decodeState).
func decodeConsensus(b []byte, e *logEntry) (consMsg, error) {
	r := codec.NewReader(b)
	if r.Byte() != wireVersion {
		return consMsg{}, errWire
	}
	k := consKind(r.Byte())
	if k > consBeat {
		return consMsg{}, errWire
	}
	m := consMsg{Kind: k, From: r.Byte(), Ballot: r.Uvarint(), Index: r.Uvarint(), AccBallot: r.Uvarint()}
	if r.Bool() {
		*e = logEntry{Index: r.Uvarint(), Ballot: r.Uvarint(), Note: r.Bytes()}
		if r.Bool() {
			e.Cp = r.Rest()
			if err := decodeState(e.Cp, nil); err != nil {
				return consMsg{}, err
			}
		}
		m.Entry = e
	}
	if !r.Done() {
		return consMsg{}, errWire
	}
	return m, nil
}
