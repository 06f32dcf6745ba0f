package netsim

// Chaos injects adversarial link conditions beyond the clean packet removal
// of Failure: bit corruption, packet duplication, reordering/jitter and link
// flapping. Failure models the paper's Table 1 gray-failure classes — the
// conditions FANcY is designed to DETECT; Chaos models everything else a
// misbehaving link can do to the detector itself — the conditions FANcY
// must SURVIVE (§4.1's stop-and-wait reliability argument, and §2.1's
// intermittent failures that "are never diagnosed").
//
// All randomness is drawn from a generator derived from the simulation seed
// (sim.Sim.DeriveRand), so identical seeds replay identical chaos schedules
// event for event.

import (
	"math/rand"

	"fancy/internal/sim"
)

// Chaos is an adversarial link-condition injector for one link direction.
// Install it with LinkEnd.SetChaos. Fields may be combined freely; each is
// evaluated independently per delivered packet.
type Chaos struct {
	// Start opens the active window, which lasts until the end of the
	// simulation or until LinkEnd.SetChaos(nil), like a Failure's.
	Start sim.Time

	// CorruptCtl is the per-packet probability of flipping a random bit in
	// a FANcY control message's wire bytes. The corrupted message is still
	// delivered: the receiving detector must reject it through the wire
	// checksum rather than mis-parse it, exercising the Unmarshal
	// validation path end to end.
	CorruptCtl float64

	// CorruptData is the per-packet probability of corrupting a data
	// packet. Link-layer CRC discards corrupted data frames, so the effect
	// on the wire is a drop — but unlike Failure drops it also hits tagged
	// packets mid-session, which is exactly a gray failure FANcY must
	// detect (CRC corruption is the paper's canonical uniform-loss cause).
	CorruptData float64

	// Duplicate is the per-packet probability of delivering an extra copy
	// of the packet shortly after the original (within DupDelayMax,
	// default 500 µs). Duplicated control messages exercise the FSMs'
	// at-least-once tolerance; duplicated tagged data packets inflate the
	// downstream counters, which must never flag a healthy entry.
	Duplicate   float64
	DupDelayMax sim.Time

	// Reorder is the per-packet probability of delaying a packet by a
	// uniform extra jitter in (0, JitterMax] (default 1 ms), letting later
	// packets overtake it. The receiver's Twait grace period (§4.1) must
	// absorb jitter below Twait without raising false positives.
	Reorder   float64
	JitterMax sim.Time

	// DownFor/UpFor flap the link: starting at Start the direction cycles
	// fully down for DownFor, then up for UpFor, repeating while the window
	// is active. Both zero disables flapping. A flap outage longer than
	// MaxAttempts×Trtx drives the detector's link-down/recovery path.
	DownFor, UpFor sim.Time

	rng *rand.Rand

	// Stats counts what the injector did, per class.
	Stats ChaosStats
}

// ChaosStats tallies chaos actions on one link direction.
type ChaosStats struct {
	CorruptedCtl  uint64 // control messages delivered with flipped bits
	CorruptedData uint64 // data packets dropped by the CRC model
	Duplicated    uint64 // extra copies delivered
	Reordered     uint64 // packets delayed by jitter
	FlapDrops     uint64 // packets dropped while the link flapped down
}

// NewChaos builds a chaos injector whose RNG is derived from the simulation
// seed and the given stream label, keeping replays deterministic.
func NewChaos(s *sim.Sim, stream string) *Chaos {
	return &Chaos{rng: s.DeriveRand("chaos/" + stream)}
}

// activeAt reports whether the chaos window covers time t.
func (c *Chaos) activeAt(t sim.Time) bool {
	return c != nil && t >= c.Start
}

// downAt reports whether the link direction is flapped down at time t.
func (c *Chaos) downAt(t sim.Time) bool {
	if !c.activeAt(t) || c.DownFor <= 0 {
		return false
	}
	if c.UpFor <= 0 {
		return true // down for the whole window
	}
	phase := (t - c.Start) % (c.DownFor + c.UpFor)
	return phase < c.DownFor
}

func (c *Chaos) roll(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return c.rng.Float64() < p
}

// chaosVerdict is the outcome of applying chaos to one arriving packet.
type chaosVerdict uint8

const (
	chaosDeliver chaosVerdict = iota // deliver now (possibly corrupted)
	chaosDrop                        // flap or CRC removed the packet
	chaosDelay                       // deliver after extra jitter
)

// apply decides this packet's fate at delivery time t. It may mutate the
// packet (control-byte corruption) and reports an optional extra delay and
// whether an extra copy must be scheduled.
func (c *Chaos) apply(pkt *Packet, t sim.Time) (v chaosVerdict, extraDelay sim.Time, dup bool) {
	if !c.activeAt(t) {
		return chaosDeliver, 0, false
	}
	if c.downAt(t) {
		c.Stats.FlapDrops++
		return chaosDrop, 0, false
	}
	if pkt.Proto == ProtoFancy {
		if c.CorruptCtl > 0 && len(pkt.Ctl) > 0 && c.roll(c.CorruptCtl) {
			bit := c.rng.Intn(len(pkt.Ctl) * 8)
			pkt.Ctl[bit/8] ^= 1 << (bit % 8)
			c.Stats.CorruptedCtl++
		}
	} else if c.CorruptData > 0 && c.roll(c.CorruptData) {
		c.Stats.CorruptedData++
		return chaosDrop, 0, false
	}
	dup = c.Duplicate > 0 && c.roll(c.Duplicate)
	if c.Reorder > 0 && c.roll(c.Reorder) {
		max := c.JitterMax
		if max <= 0 {
			max = sim.Millisecond
		}
		extraDelay = 1 + sim.Time(c.rng.Int63n(int64(max)))
		c.Stats.Reordered++
		return chaosDelay, extraDelay, dup
	}
	return chaosDeliver, 0, dup
}

// dupDelay picks the extra copy's delay behind the original.
func (c *Chaos) dupDelay() sim.Time {
	max := c.DupDelayMax
	if max <= 0 {
		max = 500 * sim.Microsecond
	}
	return 1 + sim.Time(c.rng.Int63n(int64(max)))
}

// clone deep-copies a packet for duplicate delivery: the receiver mutates
// delivered packets (tag stripping, control-byte parsing), so the copy must
// not share the Ctl buffer.
func (p *Packet) clone() *Packet {
	q := *p
	q.Ctl = append([]byte(nil), p.Ctl...) // nil when p carries no bytes
	// The copy is its own object: it is in no lane and no pool issued it.
	q.laneNext = nil
	q.laneAt = 0
	q.laneEgressed = false
	q.home = nil
	return &q
}
