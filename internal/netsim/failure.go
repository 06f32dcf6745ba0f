package netsim

import (
	"math/rand"
	"slices"

	"fancy/internal/sim"
)

// Failure injects gray-failure packet drops into one link direction. It
// reproduces the failure classes of Table 1 in the paper, one constructor
// each:
//
//   - per-entry loss (some or all packets of one or a few IP prefixes):
//     FailEntries;
//   - uniform loss (all entries, a fraction of packets — e.g. CRC
//     corruption on a link): FailUniform;
//   - per-flow and per-size loss: FailFlows and FailSizes;
//   - blackholes: probability 1 in any of them.
//
// A Failure is active from its start time on; LinkEnd.SetFailure(nil) heals
// the direction. Control-plane packets (ProtoFancy) are only affected by
// uniform loss: entry-selective hardware bugs match on header fields the
// control messages do not carry, whereas link-level corruption hits
// everything — exactly the property that makes gray failures invisible to
// hello protocols like BFD yet detectable by FANcY.
type Failure struct {
	start sim.Time

	uniform float64

	// entries is the per-entry failure's entry set, one bit per EntryID;
	// each member loses entryLoss of its packets.
	entries   []uint64
	entryLoss float64

	// flowFraction selects a deterministic subset of flows (by flow-ID
	// hash) whose packets are dropped with probability flowLoss. This
	// models the Table 1 bugs that hit specific packets — e.g. specific
	// sizes or header values — which map to specific flows: the failure
	// class hello protocols and Blink-style retransmission detectors
	// fundamentally miss when the subset is a minority.
	flowFraction float64
	flowLoss     float64

	// sizeMin/sizeMax select packets by wire size, dropped with
	// probability sizeLoss — the Table 1 bug "drops random sized L2TPv3
	// packets" / "packets with specific sizes" class.
	sizeMin, sizeMax int
	sizeLoss         float64

	rng *rand.Rand

	// Dropped counts packets this failure removed, per class.
	Dropped struct {
		Data    uint64
		Control uint64
	}
}

// newFailure returns a failure active from start with its own
// deterministic drop RNG.
func newFailure(seed int64, start sim.Time) *Failure {
	return &Failure{start: start, rng: rand.New(rand.NewSource(seed))}
}

// activeAt reports whether the failure is in force at time t.
func (f *Failure) activeAt(t sim.Time) bool {
	return f != nil && t >= f.start
}

// Drop decides whether to drop pkt at time t.
func (f *Failure) Drop(pkt *Packet, t sim.Time) bool {
	if !f.activeAt(t) {
		return false
	}
	if pkt.Proto == ProtoFancy {
		if f.uniform > 0 && f.roll(f.uniform) {
			f.Dropped.Control++
			return true
		}
		return false
	}
	if f.uniform > 0 && f.roll(f.uniform) {
		f.Dropped.Data++
		return true
	}
	if f.hasEntry(pkt.Entry) && f.roll(f.entryLoss) {
		f.Dropped.Data++
		return true
	}
	if f.flowFraction > 0 && flowSelected(pkt.Flow, f.flowFraction) && f.roll(f.flowLoss) {
		f.Dropped.Data++
		return true
	}
	if f.sizeLoss > 0 && pkt.Size >= f.sizeMin && pkt.Size <= f.sizeMax && f.roll(f.sizeLoss) {
		f.Dropped.Data++
		return true
	}
	return false
}

// FailSizes builds a failure dropping rate of the packets whose wire size
// lies in [min, max] bytes, from start onward.
func FailSizes(seed int64, start sim.Time, min, max int, rate float64) *Failure {
	f := newFailure(seed, start)
	f.sizeMin, f.sizeMax = min, max
	f.sizeLoss = rate
	return f
}

// flowSelected deterministically maps a flow into [0,1) and compares
// against the selected fraction.
func flowSelected(flow FlowID, fraction float64) bool {
	x := uint64(flow) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return float64(x%1_000_000)/1_000_000 < fraction
}

// FailFlows builds a failure dropping rate of the packets of a fraction
// of flows, from start onward.
func FailFlows(seed int64, start sim.Time, fraction, rate float64) *Failure {
	f := newFailure(seed, start)
	f.flowFraction = fraction
	f.flowLoss = rate
	return f
}

func (f *Failure) roll(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// FailEntries builds a per-entry failure dropping rate of each listed entry.
// The entry set is a bitset as long as the largest listed entry ID (8 KiB
// per 65 536 IDs).
func FailEntries(seed int64, start sim.Time, rate float64, entries ...EntryID) *Failure {
	f := newFailure(seed, start)
	f.entryLoss = rate
	if len(entries) > 0 {
		f.entries = make([]uint64, slices.Max(entries)/64+1)
	}
	for _, e := range entries {
		f.entries[e/64] |= 1 << (e % 64)
	}
	return f
}

// hasEntry reports whether e is in the per-entry failure's set.
func (f *Failure) hasEntry(e EntryID) bool {
	w := int(e / 64)
	return w < len(f.entries) && f.entries[w]&(1<<(e%64)) != 0
}

// FailUniform builds a uniform random-loss failure starting at start.
func FailUniform(seed int64, start sim.Time, rate float64) *Failure {
	f := newFailure(seed, start)
	f.uniform = rate
	return f
}
