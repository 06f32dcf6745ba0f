// Package simple implements the strawman designs of §2.4/§5.2 that FANcY is
// compared against: a single counter per link, one dedicated counter per
// prefix, and a counting Bloom filter. All three share a synchronized
// per-interval counting harness (upstream counts at the sender side of a
// link, downstream at the receiver side, compared every interval), so their
// accuracy can be measured on the same simulations as FANcY.
package simple

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// Design maps entries to counter cells.
type Design interface {
	// Cells is the number of counter cells per side.
	Cells() int
	// Index returns the cells an entry's packets increment.
	Index(entry netsim.EntryID) []int
	// Name identifies the design in reports.
	Name() string
}

// SingleCounter is one counter for the whole link: it detects that the link
// loses packets but cannot localize anything — every entry is implicated.
type SingleCounter struct{}

func (SingleCounter) Cells() int                 { return 1 }
func (SingleCounter) Index(netsim.EntryID) []int { return []int{0} }
func (SingleCounter) Name() string               { return "single-counter" }

// PerEntry dedicates one counter to each of n entries (entries must be
// 0..n-1). It is exact but needs memory proportional to the routing table:
// §2.4 computes ≈512 MB for the Internet table on a 64-port switch.
type PerEntry struct{ N int }

func (p PerEntry) Cells() int { return p.N }
func (p PerEntry) Index(e netsim.EntryID) []int {
	if int(e) >= p.N {
		return nil
	}
	return []int{int(e)}
}
func (p PerEntry) Name() string { return "per-entry" }

// MemoryBytes is the per-entry design's memory need across both sides with
// counting-protocol support (80 bits per entry, as for FANcY's dedicated
// counters), times the port count.
func (p PerEntry) MemoryBytes(ports int) int { return p.N * 80 / 8 * ports }

// CountingBloom hashes every entry into K of M cells. It fits any memory
// budget but collisions implicate innocent entries: the paper measures ≈100
// false positives per detected failure at ISP routing-table sizes.
type CountingBloom struct {
	M    int
	K    int
	Seed uint64
}

func (c CountingBloom) Cells() int { return c.M }

func (c CountingBloom) Index(e netsim.EntryID) []int {
	out := make([]int, c.K)
	h := uint64(e) ^ c.Seed
	for i := 0; i < c.K; i++ {
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		h += uint64(i) * 0x9e3779b97f4a7c15
		out[i] = int(h % uint64(c.M))
	}
	return out
}

func (c CountingBloom) Name() string { return "counting-bloom" }

// MemoryBytes for the counting Bloom filter: 32-bit cells on both sides.
func (c CountingBloom) MemoryBytes() int { return c.M * 4 * 2 }

// probeRing is the number of in-flight measurement windows kept. A window
// is compared one full interval after it closes, so two slots are live at a
// time; four gives headroom.
const probeRing = 4

// Probe attaches a design to one link: the upstream egress stamps each data
// packet with the current measurement window and counts it; the downstream
// ingress counts the packet into its stamped window. A window is compared
// one interval after it closes — by then all its packets have either
// arrived or been lost — and mismatching cells are flagged. The stamp plays
// the role of FANcY's session tags: both sides count the same packets in
// the same window despite propagation delay.
type Probe struct {
	Design   Design
	Interval sim.Time
	// CountingDuty is the fraction of each interval during which packets
	// are counted (default 1.0), modelling the pauses counter-exchange
	// protocols impose.
	CountingDuty float64

	s           *sim.Sim
	up, down    [probeRing][]uint64
	flagged     []bool
	flaggedAt   []sim.Time
	started     sim.Time
	ComparesRun uint64
}

// NewProbe builds a probe and starts its comparison cycle.
func NewProbe(s *sim.Sim, d Design, interval sim.Time) *Probe {
	p := &Probe{
		Design: d, Interval: interval, CountingDuty: 1.0, s: s,
		flagged:   make([]bool, d.Cells()),
		flaggedAt: make([]sim.Time, d.Cells()),
	}
	for i := range p.up {
		p.up[i] = make([]uint64, d.Cells())
		p.down[i] = make([]uint64, d.Cells())
	}
	p.started = s.Now()
	// Window 0 closes at interval; compare it one interval later.
	s.After(2*interval, func() { p.compare(0) })
	return p
}

// window returns the measurement window index at the current time, and
// whether counting is active within the duty cycle.
func (p *Probe) window() (int64, bool) {
	el := p.s.Now() - p.started
	w := int64(el / p.Interval)
	if p.CountingDuty < 1 {
		phase := el % p.Interval
		if float64(phase) >= p.CountingDuty*float64(p.Interval) {
			return w, false
		}
	}
	return w, true
}

// OnEgress implements netsim.EgressHook for the upstream switch.
func (p *Probe) OnEgress(pkt *netsim.Packet, port int) {
	if pkt.Proto == netsim.ProtoFancy || pkt.Entry == netsim.InvalidEntry {
		return
	}
	w, active := p.window()
	if !active {
		return
	}
	pkt.ProbeWindow = w + 1 // 0 means unstamped
	for _, i := range p.Design.Index(pkt.Entry) {
		p.up[w%probeRing][i]++
	}
}

// OnIngress implements netsim.IngressHook for the downstream switch.
func (p *Probe) OnIngress(pkt *netsim.Packet, port int) bool {
	if pkt.Proto == netsim.ProtoFancy || pkt.Entry == netsim.InvalidEntry || pkt.ProbeWindow == 0 {
		return false
	}
	w := pkt.ProbeWindow - 1
	pkt.ProbeWindow = 0 // stamp is per-link
	for _, i := range p.Design.Index(pkt.Entry) {
		p.down[w%probeRing][i]++
	}
	return false
}

func (p *Probe) compare(w int64) {
	p.ComparesRun++
	slot := w % probeRing
	up, down := p.up[slot], p.down[slot]
	for i := range up {
		if up[i] > down[i] && !p.flagged[i] {
			p.flagged[i] = true
			p.flaggedAt[i] = p.s.Now()
		}
		up[i] = 0
		down[i] = 0
	}
	p.s.After(p.Interval, func() { p.compare(w + 1) })
}

// EntryFlagged reports whether all the entry's cells have been flagged —
// the design's claim that the entry is failing.
func (p *Probe) EntryFlagged(e netsim.EntryID) bool {
	cells := p.Design.Index(e)
	if len(cells) == 0 {
		return false
	}
	for _, i := range cells {
		if !p.flagged[i] {
			return false
		}
	}
	return true
}

// EntryFlaggedAt returns the latest flag time across the entry's cells.
func (p *Probe) EntryFlaggedAt(e netsim.EntryID) (sim.Time, bool) {
	if !p.EntryFlagged(e) {
		return 0, false
	}
	var at sim.Time
	for _, i := range p.Design.Index(e) {
		if p.flaggedAt[i] > at {
			at = p.flaggedAt[i]
		}
	}
	return at, true
}

// FalsePositives counts entries of a universe that are flagged but not in
// the failed set.
func (p *Probe) FalsePositives(universe []netsim.EntryID, failed map[netsim.EntryID]bool) int {
	n := 0
	for _, e := range universe {
		if !failed[e] && p.EntryFlagged(e) {
			n++
		}
	}
	return n
}
