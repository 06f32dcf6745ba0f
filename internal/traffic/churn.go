package traffic

// Churning heavy-hitter workload: a Zipf-popular entry set whose head
// rotates on a fixed schedule. Every epoch a batch of never-before-hot
// entries jumps from the cold tail to the top ranks, which is exactly the
// workload dynamic dedicated-counter allocation exists for — a static
// top-k chosen at deploy time goes stale one epoch later.

import (
	"math/rand"
	"sort"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// ChurnConfig parameterizes a churning workload.
type ChurnConfig struct {
	// Entries is the size of the entry set (IDs 0..Entries-1).
	Entries int

	// AggregateBps is the total offered load, split across the entry set
	// by a Zipf distribution with exponent churnZipfS.
	AggregateBps float64

	// ShiftInterval is the epoch length; Epochs is how many epochs the
	// schedule covers. At every epoch boundary after the first,
	// churnShiftCount never-before-hot entries move from the cold tail to
	// the top ranks.
	ShiftInterval sim.Time
	Epochs        int

	// HotRanks defines the "hot head": entries that ever ranked within
	// the top HotRanks are excluded from later shift batches, so every
	// shifted-in entry is genuinely new to the head. Defaults to
	// churnShiftCount; experiments comparing against a static top-k should set
	// it to k.
	HotRanks int

	// Seed drives the rank-shift schedule. Same seed, same schedule.
	Seed int64
}

// The workload's shape is fixed; no experiment varies it.
const (
	churnZipfS = 1.1 // Zipf exponent of the popularity split
	// minEntryBps drops entries whose epoch rate falls below it: the deep
	// tail would otherwise cost thousands of sources without moving any
	// result.
	minEntryBps  = 10e3
	churnPktSize = 1000 // UDP packet size in bytes
	// churnShiftCount entries move into the head at each epoch boundary.
	churnShiftCount = 4
)

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.HotRanks <= 0 { // a negative head would slice perm[:HotRanks]
		c.HotRanks = churnShiftCount
	}
	return c
}

// ChurnSchedule is a materialized churning workload: per-epoch popularity
// rankings plus the batch of entries that newly became hot at each epoch.
type ChurnSchedule struct {
	cfg    ChurnConfig
	shares []float64

	// ranks[e][r] is the entry at popularity rank r during epoch e.
	ranks [][]netsim.EntryID

	// newlyHot[e] lists the entries promoted into the head at epoch e's
	// start (empty for epoch 0), in promotion order.
	newlyHot [][]netsim.EntryID

	// rank[e] inverts ranks[e]: entry → rank.
	rank []map[netsim.EntryID]int
}

// NewChurnSchedule materializes the rank-shift schedule. The generator
// owns its rand.Rand, so equal configs yield equal schedules.
func NewChurnSchedule(cfg ChurnConfig) *ChurnSchedule {
	cfg = cfg.withDefaults()
	cs := &ChurnSchedule{cfg: cfg, shares: ZipfShares(cfg.Entries, churnZipfS)}
	rng := rand.New(rand.NewSource(cfg.Seed))

	perm := make([]netsim.EntryID, cfg.Entries)
	for i := range perm {
		perm[i] = netsim.EntryID(i)
	}
	everHot := make(map[netsim.EntryID]bool)
	head := cfg.HotRanks
	if head > cfg.Entries {
		head = cfg.Entries
	}
	for e := 0; e < cfg.Epochs; e++ {
		var fresh []netsim.EntryID
		if e > 0 {
			// Candidates: cold-tail entries that were never in the head.
			var cold []netsim.EntryID
			for _, entry := range perm[head:] {
				if !everHot[entry] {
					cold = append(cold, entry)
				}
			}
			for i := 0; i < churnShiftCount && len(cold) > 0; i++ {
				j := rng.Intn(len(cold))
				fresh = append(fresh, cold[j])
				cold = append(cold[:j], cold[j+1:]...)
			}
			// The fresh batch takes the top ranks; everyone else shifts
			// down preserving relative order.
			next := make([]netsim.EntryID, 0, cfg.Entries)
			next = append(next, fresh...)
			promoted := make(map[netsim.EntryID]bool, len(fresh))
			for _, entry := range fresh {
				promoted[entry] = true
			}
			for _, entry := range perm {
				if !promoted[entry] {
					next = append(next, entry)
				}
			}
			perm = next
		}
		for _, entry := range perm[:head] {
			everHot[entry] = true
		}
		epochRanks := append([]netsim.EntryID(nil), perm...)
		cs.ranks = append(cs.ranks, epochRanks)
		cs.newlyHot = append(cs.newlyHot, fresh)
		inv := make(map[netsim.EntryID]int, cfg.Entries)
		for r, entry := range epochRanks {
			inv[entry] = r
		}
		cs.rank = append(cs.rank, inv)
	}
	return cs
}

// Config returns the schedule's effective (defaulted) configuration.
func (cs *ChurnSchedule) Config() ChurnConfig { return cs.cfg }

// Epochs returns the number of materialized epochs.
func (cs *ChurnSchedule) Epochs() int { return len(cs.ranks) }

// EpochStart returns when epoch e begins.
func (cs *ChurnSchedule) EpochStart(e int) sim.Time {
	return sim.Time(e) * cs.cfg.ShiftInterval
}

// Duration returns the schedule's total length.
func (cs *ChurnSchedule) Duration() sim.Time {
	return sim.Time(cs.Epochs()) * cs.cfg.ShiftInterval
}

// Ranks returns epoch e's popularity ranking (rank 0 hottest). The slice
// is owned by the schedule; do not mutate.
func (cs *ChurnSchedule) Ranks(e int) []netsim.EntryID { return cs.ranks[e] }

// NewlyHot lists the entries that jumped into the head at epoch e's start
// (empty for epoch 0).
func (cs *ChurnSchedule) NewlyHot(e int) []netsim.EntryID { return cs.newlyHot[e] }

// Rate returns entry's offered load during epoch e (0 when it falls under
// minEntryBps and is not emitted).
func (cs *ChurnSchedule) Rate(e int, entry netsim.EntryID) float64 {
	r, ok := cs.rank[e][entry]
	if !ok {
		return 0
	}
	rate := cs.cfg.AggregateBps * cs.shares[r]
	if rate < minEntryBps {
		return 0
	}
	return rate
}

// Top returns epoch e's k hottest entries, sorted ascending (the natural
// HighPriority form for a static-allocation baseline).
func (cs *ChurnSchedule) Top(e, k int) []netsim.EntryID {
	if k > len(cs.ranks[e]) {
		k = len(cs.ranks[e])
	}
	out := append([]netsim.EntryID(nil), cs.ranks[e][:k]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Launch schedules the whole workload as per-epoch CBR UDP sources from
// host: each emitted entry gets one source per epoch, running from the
// epoch's start to its end. It returns the number of sources scheduled.
func (cs *ChurnSchedule) Launch(s *sim.Sim, host *netsim.Host) int {
	n := 0
	for e := 0; e < cs.Epochs(); e++ {
		start, stop := cs.EpochStart(e), cs.EpochStart(e+1)
		for _, entry := range cs.ranks[e] {
			rate := cs.Rate(e, entry)
			if rate <= 0 {
				continue
			}
			src := NewUDPSource(s, host, netsim.FlowID(n+1), entry,
				netsim.EntryAddr(entry, 1), rate, churnPktSize, stop)
			src.StartAt(start)
			n++
		}
	}
	return n
}
