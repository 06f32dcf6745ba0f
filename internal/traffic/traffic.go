// Package traffic generates the workloads of the FANcY evaluation:
// fixed-rate synthetic entries (the Figure 7/8/9 grid), Zipf-distributed
// entry popularity (the §5.1.3 uniform-failure experiments), CAIDA-like
// synthesized traces (Table 3/5), and constant-bit-rate UDP sources (the
// Figure 10 case study).
//
// The paper replays real CAIDA traces; those traces are not redistributable,
// so this package synthesizes workloads that reproduce their published
// aggregate statistics (Table 5: bit rate, packet rate, flow rate) and the
// heavy-tailed per-prefix traffic distribution that drives FANcY's accuracy
// results. See DESIGN.md §1 for the substitution rationale.
package traffic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
)

// FlowSpec describes one flow to be injected into a simulation.
type FlowSpec struct {
	Entry   netsim.EntryID
	Start   sim.Time
	Bytes   int64
	RateBps float64 // pacing rate; 0 = bulk
	MSS     int     // per-flow segment size; 0 = the TCP default (1460)
}

// SteadyEntry builds the flow arrivals for one entry of the synthetic grid:
// flows arrive at flowsPerSec for the given duration, each carrying
// rateBps/flowsPerSec of throughput for ≈1 second (the paper's flow
// duration), so the entry's aggregate rate is rateBps.
func SteadyEntry(entry netsim.EntryID, rateBps, flowsPerSec float64, duration sim.Time, rng *rand.Rand) []FlowSpec {
	if flowsPerSec <= 0 || rateBps <= 0 || duration <= 0 {
		return nil
	}
	perFlowRate := rateBps / flowsPerSec
	flowBytes := int64(perFlowRate / 8) // 1 second worth
	if flowBytes < 40 {
		flowBytes = 40
	}
	interval := sim.Time(float64(sim.Second) / flowsPerSec)
	var specs []FlowSpec
	// Random phase so repetitions differ, then deterministic spacing with
	// small jitter, approximating a stationary arrival process.
	start := sim.Time(rng.Int63n(int64(interval) + 1))
	for at := start; at < duration; at += interval {
		jitter := sim.Time(rng.Int63n(int64(interval)/2+1)) - interval/4
		t := at + jitter
		if t < 0 {
			t = 0
		}
		specs = append(specs, FlowSpec{Entry: entry, Start: t, Bytes: flowBytes, RateBps: perFlowRate})
	}
	return specs
}

// ZipfShares returns n traffic shares following a Zipf distribution with
// exponent s (shares sum to 1, rank 0 largest). The paper cites Zipf's law
// for per-prefix traffic skew [38].
func ZipfShares(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	shares := make([]float64, n)
	var sum float64
	for i := range shares {
		shares[i] = 1 / math.Pow(float64(i+1), s)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// ZipfWorkload spreads aggregateBps across numEntries entries with Zipf
// exponent s, generating flow arrivals for each entry proportional to its
// share. Entries with less than minEntryBps are merged into flows of the
// smallest viable rate at proportionally lower arrival frequency.
func ZipfWorkload(numEntries int, aggregateBps, flowsPerSec float64, s float64,
	duration sim.Time, rng *rand.Rand) []FlowSpec {
	shares := ZipfShares(numEntries, s)
	var specs []FlowSpec
	for i, share := range shares {
		rate := aggregateBps * share
		fps := flowsPerSec * share
		if fps < 0.2 {
			fps = 0.2 // at least a flow every 5 seconds
		}
		specs = append(specs, SteadyEntry(netsim.EntryID(i), rate, fps, duration, rng)...)
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].Start < specs[b].Start })
	return specs
}

// Driver injects FlowSpecs into a running simulation between two hosts and
// tracks per-entry delivery statistics.
type Driver struct {
	s        *sim.Sim
	src, dst *netsim.Host
	cfg      tcp.Config

	// Senders holds every flow launched so far, in launch order; a flow's
	// ID is its index here.
	Senders []*tcp.Sender

	scheduled int // flows scheduled so far; every flow ID is below it
}

// NewDriver builds a driver. The tcp.Config applies to every generated flow
// (zero value = defaults: 1460 MSS, 200 ms RTO).
func NewDriver(s *sim.Sim, src, dst *netsim.Host, cfg tcp.Config) *Driver {
	return &Driver{s: s, src: src, dst: dst, cfg: cfg}
}

// Schedule arranges for every spec's flow to start at its Start time. Flows
// with equal Start times launch in the order of specs. The specs are copied,
// so the caller may reuse the slice.
//
// The launches form one sim.Sequence over a copy stable-sorted by Start:
// that is the order one ScheduleAt per spec would fire them in, at the same
// places among other events, while only the next launch waits in the queue.
// Each launch opens its flow on the next record of one tcp.Block, and
// Senders and both hosts' handler tables are sized for every flow here, so
// only the first launch allocates: the block's records, all at once.
func (d *Driver) Schedule(specs []FlowSpec) {
	specs = slices.Clone(specs)
	slices.SortStableFunc(specs, func(a, b FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
	blk := tcp.NewBlock(len(specs))
	d.scheduled += len(specs)
	if d.scheduled > cap(d.Senders) { // at least doubling, as Host.Reserve
		d.Senders = append(make([]*tcp.Sender, 0, max(d.scheduled, 2*cap(d.Senders))), d.Senders...)
	}
	d.src.Reserve(d.scheduled)
	d.dst.Reserve(d.scheduled)
	d.s.Sequence(len(specs),
		func(i int) sim.Time { return specs[i].Start },
		func(i int) { d.launch(blk, specs[i]) })
}

func (d *Driver) launch(blk *tcp.Block, spec FlowSpec) {
	flow := netsim.FlowID(len(d.Senders))
	cfg := d.cfg
	cfg.RateBps = spec.RateBps
	if spec.MSS > 0 {
		cfg.MSS = spec.MSS
	}
	snd := blk.NewSender(d.s, d.src, d.dst, flow, spec.Entry,
		netsim.IPv4(172, 16, 0, 1), netsim.EntryAddr(spec.Entry, 1),
		spec.Bytes, cfg)
	d.Senders = append(d.Senders, snd)
	snd.Start()
}

// Started reports the number of flows launched so far.
func (d *Driver) Started() uint64 { return uint64(len(d.Senders)) }

// Completed reports the number of finished flows.
func (d *Driver) Completed() int {
	n := 0
	for _, snd := range d.Senders {
		if snd.Done() {
			n++
		}
	}
	return n
}

// UDPSource emits constant-bit-rate UDP packets for one entry, as in the
// Figure 10 testbed (50 Mbps UDP alongside TCP).
type UDPSource struct {
	s     *sim.Sim
	host  *netsim.Host
	flow  netsim.FlowID
	entry netsim.EntryID
	dst   uint32
	size  int
	gap   sim.Time
	stop  sim.Time

	// Pool supplies the emitted packets; Start defaults it to the host's
	// pool. Set it beforehand to draw from (and count reuse on) a pool
	// shared by several sources.
	Pool *netsim.PacketPool

	Sent uint64
}

// NewUDPSource creates a CBR source sending pktSize-byte packets at rateBps
// until stop (0 = forever). Like sim.After on a negative delay, it panics
// on a rate that is not > 0 or whose packet gap is under a nanosecond or
// too long for sim.Time.
func NewUDPSource(s *sim.Sim, host *netsim.Host, flow netsim.FlowID, entry netsim.EntryID,
	dst uint32, rateBps float64, pktSize int, stop sim.Time) *UDPSource {
	gap := float64(pktSize*8) / rateBps * float64(sim.Second)
	if !(rateBps > 0 && gap >= 1 && gap < math.MaxInt64) {
		panic(fmt.Sprintf("traffic: UDP rate %v bps at %d-byte packets gives no packet gap sim.Time can hold", rateBps, pktSize))
	}
	return &UDPSource{s: s, host: host, flow: flow, entry: entry, dst: dst, size: pktSize, gap: sim.Time(gap), stop: stop}
}

// udpStart and udpTick are the UDPSource as the sim.Actor of its start
// and of its per-packet tick, so neither allocates when armed.
type (
	udpStart UDPSource
	udpTick  UDPSource
)

func (u *udpStart) Fire() { (*UDPSource)(u).Start() }
func (u *udpTick) Fire()  { (*UDPSource)(u).tick() }

// StartAt schedules Start at the absolute virtual time at, exactly where
// an At(at, ·) call made now would run it.
func (u *UDPSource) StartAt(at sim.Time) { u.s.AtActor(at, (*udpStart)(u)) }

// Start begins emission.
func (u *UDPSource) Start() {
	if u.Pool == nil {
		u.Pool = u.host.Pool()
	}
	u.tick()
}

func (u *UDPSource) tick() {
	if u.stop > 0 && u.s.Now() >= u.stop {
		return
	}
	pkt := u.Pool.Get()
	pkt.Flow, pkt.Entry, pkt.Dst = u.flow, u.entry, u.dst
	pkt.Proto, pkt.Size = netsim.ProtoUDP, u.size
	u.host.Send(pkt)
	u.Sent++
	u.s.AfterActor(u.gap, (*udpTick)(u))
}
