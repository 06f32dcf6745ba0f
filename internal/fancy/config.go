// Package fancy implements the FANcY gray-failure detector (§3–§4 of the
// paper): the inter-switch counting protocol with its sender and receiver
// finite state machines, dedicated per-entry counters for high-priority
// entries, and the hash-based tree with the zooming algorithm for
// best-effort entries.
//
// A Detector attaches to a netsim.Switch. The switch upstream of a link runs
// sender FSMs (one per dedicated entry plus one for the tree, exactly the
// per-port sub-state-machines of the Tofino implementation in Appendix B);
// the downstream switch runs the matching receiver FSMs. Counters are
// compared at the upstream side at the end of every counting session, and
// mismatches raise Events and populate the output structures (a 1-bit flag
// array for dedicated entries and a Bloom filter of flagged hash paths).
package fancy

import (
	"fmt"

	"fancy/internal/fancy/tree"
	"fancy/internal/hh"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// Config is the FANcY input of Figure 1: the monitoring requirements
// (high-priority entries), the memory budget, and the two session durations.
type Config struct {
	// HighPriority lists entries tracked with dedicated counters, in slot
	// order (slot index = wire unit). The paper's evaluation uses the 500
	// prefixes driving the most traffic.
	HighPriority []netsim.EntryID

	// MemoryBytes is the per-port memory budget (paper: 20 KB per port,
	// 1.25 MB for a 64-port switch). Zero disables the budget check.
	MemoryBytes int

	// Tree parameterizes the hash-based tree for best-effort entries. A
	// zero Width is auto-sized from the memory left after dedicated
	// counters. The paper's defaults are Depth 3, Split 2, pipelined.
	Tree tree.Params

	// TreeSeed seeds the per-level hash functions.
	TreeSeed uint64

	// ExchangeInterval is the dedicated counting session duration (the
	// counters' exchange frequency, §5.1.1; default 50 ms).
	ExchangeInterval sim.Time

	// ZoomingInterval is the tree counting session duration (the zooming
	// speed, §5.1.2; default 200 ms, matching TCP's retransmission
	// timeout).
	ZoomingInterval sim.Time

	// ZoomSelection picks which mismatching counters the zooming
	// algorithm explores first. The paper selects the maximum difference
	// "to prioritize failure detection for most traffic" (§4.2, fn. 1);
	// SelectRandom exists for the ablation study.
	ZoomSelection ZoomSelection

	// DynamicSlots reserves extra dedicated-counter slots beyond
	// HighPriority that the control plane assigns at runtime via
	// Promote/Demote (units len(HighPriority)..len(HighPriority)+
	// DynamicSlots-1 on the wire). The slots consume dedicated-counter
	// memory whether occupied or not — hardware register arrays are
	// provisioned, not grown.
	DynamicSlots int

	// HH, when non-nil, deploys the per-port heavy-hitter stage
	// (internal/hh): every data packet is observed by a HashPipe sketch
	// with PRECISION admission, and the top-DefaultHHTopK digest is
	// reported through Detector.OnHHReport once per hhReportInterval. This
	// is the signal the counter-allocation controller uses to drive
	// DynamicSlots.
	HH *HHStageConfig
}

// HHStageConfig parameterizes the heavy-hitter stage.
type HHStageConfig struct {
	// Sketch sizes the per-port sketch; each port derives its own seed
	// from Sketch.Seed via hh.PortSeed.
	Sketch hh.Params
}

// ZoomSelection is the zooming algorithm's counter-selection policy.
type ZoomSelection uint8

// Selection policies.
const (
	// SelectMaxDiff explores the counters with the largest mismatch
	// first (the paper's choice).
	SelectMaxDiff ZoomSelection = iota
	// SelectRandom explores mismatching counters in random order.
	SelectRandom
)

// Protocol and layout defaults. The two intervals fill zero Config fields;
// the rest are fixed — no experiment varies them, so they are not Config
// fields.
const (
	DefaultExchangeInterval = 50 * sim.Millisecond
	DefaultZoomingInterval  = 200 * sim.Millisecond

	// DefaultTrtx is the control-message retransmission timeout of the
	// stop-and-wait protocol.
	DefaultTrtx = 50 * sim.Millisecond
	// DefaultTwait is the receiver's WaitToSendCounter grace period for
	// delayed or reordered tagged packets.
	DefaultTwait = 2 * sim.Millisecond
	// DefaultMaxAttempts is X, the number of unanswered control
	// retransmissions after which a link failure is reported.
	DefaultMaxAttempts = 5
	// DefaultMaxProbeInterval caps the exponential backoff of the degraded
	// probe state a unit enters after reporting link-down: instead of
	// hammering Trtx retransmissions forever, it sends a fresh Start at
	// intervals doubling from Trtx up to this cap, and resumes counting on
	// the first answer.
	DefaultMaxProbeInterval = 8 * DefaultTrtx
	// DefaultBloomCells sizes each of the two output Bloom filter registers
	// (the Tofino prototype's layout).
	DefaultBloomCells = 100_000

	// hhReportInterval is the heavy-hitter measurement window: every
	// interval the top DefaultHHTopK prefixes are encoded, reported, and
	// the sketch reset.
	hhReportInterval = 100 * sim.Millisecond
	DefaultHHTopK    = 8

	// DedicatedEntryBits is the total memory per dedicated entry across
	// both session sides, including protocol state (§4.3: 80 bits).
	DedicatedEntryBits = 80

	// TreeNodeOverheadBits is the per-node counting-protocol and zooming
	// state (§4.3: 88 bits per side).
	TreeNodeOverheadBits = 88
)

// withDefaults returns a copy of c with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.ExchangeInterval == 0 {
		c.ExchangeInterval = DefaultExchangeInterval
	}
	if c.ZoomingInterval == 0 {
		c.ZoomingInterval = DefaultZoomingInterval
	}
	if c.Tree.Depth == 0 {
		c.Tree.Depth = 3
	}
	if c.Tree.Split == 0 {
		c.Tree.Split = 2
		c.Tree.Pipelined = true
	}
	if c.HH != nil {
		h := *c.HH // the detector's own copy: Restart re-reads it
		c.HH = &h
	}
	return c
}

// Layout is the result of input translation (§4.3): how the memory budget
// is split between dedicated counters and the hash-based tree.
type Layout struct {
	Dedicated     int // dedicated entries
	DedicatedBits int
	Tree          tree.Params
	TreeBits      int
	TotalBits     int
	BudgetBits    int // 0 if unlimited
}

// Plan performs FANcY's input translation: it allocates one dedicated
// counter per high-priority entry, then dimensions the hash-based tree from
// the remaining memory. It returns an error if the budget cannot fit the
// high-priority set plus a minimal tree — the error behaviour Figure 1
// prescribes.
func (c Config) Plan() (Layout, error) {
	c = c.withDefaults()
	var l Layout
	// Dynamic slots are provisioned register memory exactly like static
	// high-priority entries; only their assignment differs.
	l.Dedicated = len(c.HighPriority) + c.DynamicSlots
	l.DedicatedBits = l.Dedicated * DedicatedEntryBits
	l.BudgetBits = c.MemoryBytes * 8

	tp := c.Tree
	if tp.Width == 0 {
		if l.BudgetBits == 0 {
			return l, fmt.Errorf("fancy: cannot auto-size tree width without a memory budget")
		}
		remaining := l.BudgetBits - l.DedicatedBits
		perNode := remaining/tp.Nodes() - 2*TreeNodeOverheadBits
		tp.Width = perNode / (2 * tree.CounterBits)
		if tp.Width > 256 {
			tp.Width = 256
		}
	}
	if err := tp.Validate(); err != nil {
		return l, fmt.Errorf("fancy: memory budget of %d bytes cannot support %d dedicated entries plus a tree: %w",
			c.MemoryBytes, l.Dedicated, err)
	}
	l.Tree = tp
	l.TreeBits = tp.MemoryBits() + 2*TreeNodeOverheadBits*tp.Nodes()
	l.TotalBits = l.DedicatedBits + l.TreeBits
	if l.BudgetBits > 0 && l.TotalBits > l.BudgetBits {
		return l, fmt.Errorf("fancy: configuration needs %d bits but the budget is %d bits (%d bytes)",
			l.TotalBits, l.BudgetBits, c.MemoryBytes)
	}
	return l, nil
}

// String renders the layout for reports.
func (l Layout) String() string {
	return fmt.Sprintf("dedicated=%d (%.1f KB)  tree=w%d/d%d/k%d pipelined=%v (%.1f KB)  total=%.1f KB",
		l.Dedicated, float64(l.DedicatedBits)/8192,
		l.Tree.Width, l.Tree.Depth, l.Tree.Split, l.Tree.Pipelined,
		float64(l.TreeBits)/8192, float64(l.TotalBits)/8192)
}
