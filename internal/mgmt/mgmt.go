// Package mgmt simulates an ISP management network: the out-of-band channel
// between every switch's telemetry agent and the central fleet correlator.
//
// PR-2's fleet control plane rode on an implicitly perfect in-process
// channel — the one part of the system no failure could touch. Real
// management planes are IP networks that degrade exactly when the data
// plane does: reports are lost, delayed, duplicated and reordered, and
// whole sites are partitioned away from the NOC. This package models that
// channel with seed-deterministic loss, duplication and jitter plus
// partitions that cut a site off until healed, and layers a small reliable
// protocol on top:
//
//   - Client (switch side): sequence-numbered reports with per-attempt
//     timeouts and bounded retries under exponential backoff + jitter,
//     heartbeat-based connectivity probing, and an offline spool that
//     preserves report order across partitions and correlator crashes;
//   - Server (correlator side): per-client duplicate suppression and
//     gap/hole accounting over the report sequence space, heartbeat
//     liveness tracking, and a Call RPC (the Get/Sample read path) with
//     the same timeout/retry/backoff hardening.
//
// All randomness is drawn in this file, from one stream per directed
// endpoint pair derived from the simulation seed, so identical seeds replay
// identical management-plane weather.
package mgmt

import (
	"math/rand/v2"
	"slices"

	"fancy/internal/sim"
)

// Config is the management network's weather. The zero value is a perfect,
// near-instant network.
type Config struct {
	// Delay is the base one-way datagram delay (default 500 µs).
	Delay sim.Time
	// Jitter adds a uniform extra delay in [0, Jitter) per datagram.
	Jitter sim.Time
	// Loss is the per-datagram drop probability (0..1).
	Loss float64
	// Duplicate is the per-datagram probability of delivering a second
	// copy within dupDelayMax of the original.
	Duplicate float64
}

// The reliability protocol's timing is fixed; no scenario varies it (the
// knob table in DESIGN.md §7.1 lists each value next to what Config sets).
const (
	// dupDelayMax bounds how long after the original a duplicated datagram
	// is delivered.
	dupDelayMax = 2 * sim.Millisecond

	// ackTimeout is the first-attempt ack wait; each retry doubles it up to
	// backoffMax, with a ±jitterFrac multiplicative jitter to avoid
	// synchronized retry storms across the fleet.
	ackTimeout = 5 * sim.Millisecond
	backoffMax = 80 * sim.Millisecond
	jitterFrac = 0.25
	// maxAttempts bounds transmissions per report or RPC attempt cycle. An
	// exhausted report is parked in the spool rather than silently lost; an
	// exhausted RPC fails with an error.
	maxAttempts = 5
	// spoolLimit bounds the offline spool; overflow evicts the oldest
	// report, which the server will observe as a sequence hole.
	spoolLimit = 512

	// HeartbeatInterval is the client's liveness-probe cadence and the
	// replica group's tick; offlineAfter consecutive unacknowledged probes
	// or reports flip the client to offline/degraded mode.
	HeartbeatInterval = 10 * sim.Millisecond
	offlineAfter      = 3

	// UnreachableAfter is the liveness bootstrap horizon: a peer not heard
	// from for this long is considered unreachable until the phi-accrual
	// window warms up, after which suspicion adapts to the observed arrival
	// jitter. It is also the replica group's anti-flap floor
	// (PhiDetector.Silent).
	UnreachableAfter = 60 * sim.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Delay == 0 {
		c.Delay = 500 * sim.Microsecond
	}
	return c
}

// DgramKind tags a management datagram.
type DgramKind uint8

// Datagram kinds: the report stream, its acks, the RPC pair and the
// heartbeat pair.
const (
	DgramReport DgramKind = iota
	DgramReportAck
	DgramCallReq
	DgramCallResp
	DgramHeartbeat
	DgramHeartbeatAck
	// DgramRedirect is a server's "not me — talk to Payload" answer to a
	// report or heartbeat that reached a non-leader correlator replica; the
	// client re-targets and retransmits. An empty Payload means "no leader
	// known here": the client keeps rotating through its endpoint list.
	DgramRedirect
	// DgramConsensus carries an encoded replicated-log message between
	// correlator replicas (see internal/fleet's consensus wire format).
	DgramConsensus
)

// Dgram is one management-plane datagram.
type Dgram struct {
	From, To string
	Kind     DgramKind
	Seq      uint64 // report sequence or RPC id
	Payload  any
	Err      string // CallResp only
}

// NetStats counts what the channel did to traffic, fleet-wide.
type NetStats struct {
	Sent           uint64 // datagrams offered to the channel
	Delivered      uint64
	Lost           uint64 // random loss
	Duplicated     uint64 // extra copies delivered
	PartitionDrops uint64 // dropped by a partition
}

// Network is the lossy management fabric. Endpoints register by name; any
// endpoint may send to any other. Impairments apply per directed pair with
// an RNG derived from the simulation seed and the pair label, so delivery
// schedules are independent of registration or send order elsewhere.
type Network struct {
	s   *sim.Sim
	cfg Config

	eps  map[string]*endpoint
	free []*flight // landed in-flight records awaiting the next Send
	// streams[from.id][to.id] is the source of every random draw on the
	// from→to pair; nil until the pair first draws.
	streams [][]*rand.Rand
	hook    FaultHook // nil unless a test scripts datagram fates

	Stats NetStats
}

// fabric is what the protocol endpoints ask of the channel. Network is the
// implementation; the tests also run Client and Server over the
// closure-per-datagram network it replaced, as the reference.
type fabric interface {
	Send(Dgram)
	// backoff is the attempt'th jittered retransmission timeout of the
	// from→to pair.
	backoff(from, to string, attempt int) sim.Time
}

// FaultHook decides datagram fates in place of the network's draws, so a
// test can script what happens to one chosen message. Fate sees every
// datagram that passed the partition check, with the configured loss
// probability and jitter bound. It returns whether to drop
// the datagram, the extra delay on top of Config.Delay, and, if positive,
// how long after the original a duplicate lands. Retransmission backoff
// keeps drawing from the pair streams either way.
type FaultHook interface {
	Fate(d Dgram, loss float64, jitter sim.Time) (drop bool, extra, dupAfter sim.Time)
}

// SetFaultHook makes h the judge of every datagram's fate; nil, the
// default, restores the seeded draws.
func (n *Network) SetFaultHook(h FaultHook) { n.hook = h }

// endpoint is everything the network knows about one name, found with one
// lookup per end of a datagram. A name gets its record when first mentioned:
// datagrams are sent to, and partitions cut, endpoints that register later.
type endpoint struct {
	name        string
	id          int // creation order, the index into Network.streams
	handler     func(Dgram)
	partitioned bool // cut off by Partition until Heal
}

// flight is one datagram in flight, and the sim.Actor of its landing. The
// network owns the record: deliver fills it, Fire puts it back on the free
// list — so once the list holds as many as were ever in flight, a Send
// allocates nothing.
type flight struct {
	n  *Network
	to *endpoint
	d  Dgram
}

// NewNetwork builds a management network over s.
func NewNetwork(s *sim.Sim, cfg Config) *Network {
	return &Network{s: s, cfg: cfg.withDefaults(), eps: make(map[string]*endpoint)}
}

func (n *Network) ep(name string) *endpoint {
	e := n.eps[name]
	if e == nil {
		e = &endpoint{name: name, id: len(n.eps)}
		n.eps[name] = e
	}
	return e
}

// Register attaches an endpoint's delivery handler.
func (n *Network) Register(name string, handler func(Dgram)) { n.ep(name).handler = handler }

// Partition cuts an endpoint off the management network (both directions)
// until Heal. It models a site losing its out-of-band connectivity.
func (n *Network) Partition(name string) { n.ep(name).partitioned = true }

// Heal reconnects a previously partitioned endpoint.
func (n *Network) Heal(name string) { n.ep(name).partitioned = false }

// stream is the from→to pair's generator, derived from the pair label on
// its first draw and kept for the network's life. Deriving is pure, so when
// a pair first draws does not change what it draws. A sender's row starts
// with room for eight destinations.
func (n *Network) stream(from, to *endpoint) *rand.Rand {
	if from.id >= len(n.streams) {
		n.streams = slices.Grow(n.streams, len(n.eps)-len(n.streams))[:from.id+1]
	}
	row := n.streams[from.id]
	if to.id >= len(row) {
		row = slices.Grow(row, max(to.id+1, 8)-len(row))[:to.id+1]
		n.streams[from.id] = row
	}
	if row[to.id] == nil {
		row[to.id] = pairStream(n.s, from.name, to.name)
	}
	return row[to.id]
}

// pairStream builds the from→to pair's generator: a PCG (16 bytes of state)
// seeded from the pair label. It is the one constructor of every stream.
func pairStream(s *sim.Sim, from, to string) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(s.DeriveSeed("mgmt/"+from+">"+to)), 0))
}

func (n *Network) backoff(from, to string, attempt int) sim.Time {
	return retryTimeout(attempt, n.stream(n.ep(from), n.ep(to)).Float64())
}

// Send offers one datagram to the channel. Delivery (if any) is scheduled
// for a later event; Send itself never invokes the receiver synchronously.
func (n *Network) Send(d Dgram) {
	n.Stats.Sent++
	from, to := n.ep(d.From), n.ep(d.To)
	if from.partitioned || to.partitioned {
		n.Stats.PartitionDrops++
		return
	}
	var drop bool
	var extra, dup sim.Time
	if n.hook != nil {
		drop, extra, dup = n.hook.Fate(d, n.cfg.Loss, n.cfg.Jitter)
	} else if n.cfg.Loss > 0 || n.cfg.Jitter > 0 || n.cfg.Duplicate > 0 {
		drop, extra, dup = n.draw(n.stream(from, to))
	}
	if drop {
		n.Stats.Lost++
		return
	}
	delay := n.cfg.Delay + extra
	n.deliver(to, d, delay)
	if dup > 0 {
		n.Stats.Duplicated++
		n.deliver(to, d, delay+dup)
	}
}

// draw is a datagram's fate from its pair's stream, in the order every seed
// replays: loss, jitter, then duplication and the duplicate's lag.
func (n *Network) draw(r *rand.Rand) (drop bool, extra, dup sim.Time) {
	if n.cfg.Loss > 0 && r.Float64() < n.cfg.Loss {
		return true, 0, 0
	}
	if n.cfg.Jitter > 0 {
		extra = sim.Time(r.Int64N(int64(n.cfg.Jitter)))
	}
	if n.cfg.Duplicate > 0 && r.Float64() < n.cfg.Duplicate {
		dup = 1 + sim.Time(r.Int64N(int64(dupDelayMax)))
	}
	return false, extra, dup
}

// deliver puts one copy of d in flight toward to.
func (n *Network) deliver(to *endpoint, d Dgram, after sim.Time) {
	var f *flight
	if k := len(n.free); k > 0 {
		f, n.free = n.free[k-1], n.free[:k-1]
	} else {
		f = &flight{n: n}
	}
	f.to, f.d = to, d
	n.s.AfterActor(after, f)
}

// Fire lands the flight. The record is recycled before the handler runs,
// so a handler that sends re-uses it, and keeps no reference to the
// payload.
func (f *flight) Fire() {
	n, to, d := f.n, f.to, f.d
	f.d = Dgram{}
	n.free = append(n.free, f)
	if to.partitioned { // partition started while in flight
		n.Stats.PartitionDrops++
		return
	}
	if to.handler != nil {
		n.Stats.Delivered++
		to.handler(d)
	}
}

// retryTimeout is the attempt'th retransmission timeout, jittered by u, a
// uniform draw from [0, 1).
func retryTimeout(attempt int, u float64) sim.Time {
	t := ackTimeout << attempt
	if t > backoffMax || t <= 0 {
		t = backoffMax
	}
	j := 1 + jitterFrac*(2*u-1)
	t = sim.Time(float64(t) * j)
	if t < 1 {
		t = 1
	}
	return t
}
