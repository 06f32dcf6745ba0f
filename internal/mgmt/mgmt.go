// Package mgmt simulates an ISP management network: the out-of-band channel
// between every switch's telemetry agent and the central fleet correlator.
//
// PR-2's fleet control plane rode on an implicitly perfect in-process
// channel — the one part of the system no failure could touch. Real
// management planes are IP networks that degrade exactly when the data
// plane does: reports are lost, delayed, duplicated and reordered, and
// whole sites are partitioned away from the NOC. This package models that
// channel with the same seed-deterministic knob vocabulary as
// netsim.Chaos (loss, duplication, jitter, down/up partition windows) and
// layers a small reliable protocol on top:
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
// All randomness derives from the simulation seed per directed endpoint
// pair, so identical seeds replay identical management-plane weather.
package mgmt

import (
	"math/rand"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// Config is the management network's weather plus the one protocol bound a
// caller sizes. The zero value is a perfect, near-instant network.
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

	// SpoolLimit bounds the offline spool (default 512 reports); overflow
	// evicts the oldest report, which the server will observe as a
	// sequence hole.
	SpoolLimit int
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

	// HeartbeatInterval is the client's liveness-probe cadence and the
	// replica group's tick; offlineAfter consecutive unacknowledged probes
	// or reports flip the client to offline/degraded mode.
	HeartbeatInterval = 10 * sim.Millisecond
	offlineAfter      = 3

	// UnreachableAfter is the liveness bootstrap horizon: a peer not heard
	// from for this long is considered unreachable until the phi-accrual
	// window warms up, after which suspicion adapts to the observed arrival
	// jitter. It is also the replica group's anti-flap floor.
	UnreachableAfter = 60 * sim.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Delay == 0 {
		c.Delay = 500 * sim.Microsecond
	}
	if c.SpoolLimit == 0 {
		c.SpoolLimit = 512
	}
	return c
}

// NewPhi builds the phi-accrual detector both liveness consumers use (the
// server-side sweep and replica leader election): the package's suspicion
// defaults, bootstrapped by the fixed UnreachableAfter horizon.
func NewPhi() *PhiDetector {
	return NewPhiDetector(DefaultPhiThreshold, DefaultPhiWindow, DefaultPhiMinSamples, UnreachableAfter)
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
	PartitionDrops uint64 // dropped by a partition (static chaos window or dynamic)
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

	Stats NetStats
}

// fabric is what the protocol endpoints ask of the channel. Network is the
// implementation; the tests also run Client and Server over the
// closure-per-datagram network it replaced, as the reference.
type fabric interface {
	Send(Dgram)
	rng(from, to string) *rand.Rand
}

// endpoint is everything the network knows about one name, found with one
// lookup per end of a datagram. A name gets its record when first mentioned:
// datagrams are sent to, and partitions cut, endpoints that register later.
type endpoint struct {
	name        string
	handler     func(Dgram)
	partitioned bool          // dynamically cut off (Partition/Heal)
	chaos       *netsim.Chaos // windowed impairments, nil without SetChaos
	// rngs holds this sender's per-destination streams, each derived — label
	// and all — when the pair is first used, and kept for the network's life.
	rngs map[*endpoint]*rand.Rand
}

// cut reports whether the endpoint is off the network at now.
func (e *endpoint) cut(now sim.Time) bool { return e.partitioned || e.chaos.DownAt(now) }

// flight is one datagram in flight. The network owns the record: deliver
// fills it, land puts it back on the free list, fn is land bound once — so
// once the list holds as many as were ever in flight, a Send allocates nothing.
type flight struct {
	n  *Network
	to *endpoint
	d  Dgram
	fn func()
}

// NewNetwork builds a management network over s.
func NewNetwork(s *sim.Sim, cfg Config) *Network {
	return &Network{s: s, cfg: cfg.withDefaults(), eps: make(map[string]*endpoint)}
}

func (n *Network) ep(name string) *endpoint {
	e := n.eps[name]
	if e == nil {
		e = &endpoint{name: name}
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

// Partitioned reports whether the endpoint is currently cut off
// (dynamically, or inside a SetChaos down window).
func (n *Network) Partitioned(name string) bool { return n.ep(name).cut(n.s.Now()) }

// SetChaos attaches a netsim.Chaos schedule to an endpoint: its
// DownFor/UpFor window flaps the endpoint's management connectivity, its
// CorruptData probability acts as extra datagram loss (a management
// datagram with a corrupted payload is discarded whole), and
// Reorder/JitterMax add extra delivery jitter — the same knob semantics
// the data plane's chaos injector uses, applied at the management layer.
func (n *Network) SetChaos(name string, c *netsim.Chaos) { n.ep(name).chaos = c }

func (n *Network) rng(from, to string) *rand.Rand { return n.pairRand(n.ep(from), n.ep(to)) }

func (n *Network) pairRand(from, to *endpoint) *rand.Rand {
	r := from.rngs[to]
	if r == nil {
		if from.rngs == nil {
			from.rngs = make(map[*endpoint]*rand.Rand)
		}
		r = n.s.DeriveRand("mgmt/" + from.name + ">" + to.name)
		from.rngs[to] = r
	}
	return r
}

// Send offers one datagram to the channel. Delivery (if any) is scheduled
// for a later event; Send itself never invokes the receiver synchronously.
func (n *Network) Send(d Dgram) {
	n.Stats.Sent++
	now := n.s.Now()
	from, to := n.ep(d.From), n.ep(d.To)
	if from.cut(now) || to.cut(now) {
		n.Stats.PartitionDrops++
		if from.chaos.DownAt(now) {
			from.chaos.Stats.FlapDrops++
		} else if to.chaos.DownAt(now) {
			to.chaos.Stats.FlapDrops++
		}
		return
	}
	rng := n.pairRand(from, to)
	loss := n.cfg.Loss
	jitterMax := n.cfg.Jitter
	for _, c := range [2]*netsim.Chaos{from.chaos, to.chaos} {
		if c.ActiveAt(now) {
			loss = 1 - (1-loss)*(1-c.CorruptData)
			if c.JitterMax > jitterMax {
				jitterMax = c.JitterMax
			}
		}
	}
	if loss > 0 && rng.Float64() < loss {
		n.Stats.Lost++
		return
	}
	delay := n.cfg.Delay
	if jitterMax > 0 {
		delay += sim.Time(rng.Int63n(int64(jitterMax)))
	}
	n.deliver(to, d, delay)
	if n.cfg.Duplicate > 0 && rng.Float64() < n.cfg.Duplicate {
		n.Stats.Duplicated++
		n.deliver(to, d, delay+1+sim.Time(rng.Int63n(int64(dupDelayMax))))
	}
}

// deliver puts one copy of d in flight toward to.
func (n *Network) deliver(to *endpoint, d Dgram, after sim.Time) {
	var f *flight
	if k := len(n.free); k > 0 {
		f, n.free = n.free[k-1], n.free[:k-1]
	} else {
		f = &flight{n: n}
		f.fn = f.land
	}
	f.to, f.d = to, d
	n.s.After(after, f.fn)
}

// land ends a flight. The record is recycled before the handler runs, so a
// handler that sends re-uses it, and keeps no reference to the payload.
func (f *flight) land() {
	n, to, d := f.n, f.to, f.d
	f.d = Dgram{}
	n.free = append(n.free, f)
	if to.cut(n.s.Now()) { // partition started while in flight
		n.Stats.PartitionDrops++
		return
	}
	if to.handler != nil {
		n.Stats.Delivered++
		to.handler(d)
	}
}

// backoff computes the attempt'th retransmission timeout with jitter.
func backoff(rng *rand.Rand, attempt int) sim.Time {
	t := ackTimeout << attempt
	if t > backoffMax || t <= 0 {
		t = backoffMax
	}
	j := 1 + jitterFrac*(2*rng.Float64()-1)
	t = sim.Time(float64(t) * j)
	if t < 1 {
		t = 1
	}
	return t
}
