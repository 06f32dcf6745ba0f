package exp

// Churning heavy-hitter sweep: dynamic dedicated-counter allocation vs a
// static Table-3-style top-k chosen at deploy time. The workload's hot
// set rotates every epoch (internal/traffic's churn schedule); each epoch
// the first newly-hot prefix suffers a gray failure shortly after it
// becomes hot. A static allocation only has dedicated counters for the
// initial top-k, so post-churn failures fall back to tree zooming; the
// allocation loop promotes the new heavy hitters within a few report
// intervals and keeps detection at dedicated-counter speed.

import (
	"fmt"
	"sort"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/hh"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/topo"
	"fancy/internal/traffic"
)

// HHChurnRow is one failed-prefix trial under both allocation modes.
type HHChurnRow struct {
	Epoch    int
	Entry    netsim.EntryID
	NewlyHot bool // entered the hot set at this epoch (false only for epoch 0)

	StaticDetected  bool
	StaticTTL       sim.Time
	DynamicDetected bool
	DynamicTTL      sim.Time
}

// HHChurnResult aggregates the sweep.
type HHChurnResult struct {
	Scale Scale
	Seed  int64
	Slots int // dedicated slots available to both modes

	Rows []HHChurnRow

	// Medians over the newly-hot rows, the cells the sweep exists for
	// (undetected prefixes count as the run-remainder sentinel).
	StaticMedian  sim.Time
	DynamicMedian sim.Time

	// HH is the dynamic run's fleet-wide allocation-loop telemetry.
	HH fleet.HHSnapshot
}

// hhChurnFailDelay is how long after its epoch starts the target prefix
// begins blackholing — late enough for the allocation loop to have
// promoted it, well before the epoch ends.
const hhChurnFailDelay = 600 * sim.Millisecond

// HHChurn runs the sweep at the given scale: one churn schedule, two runs
// (static vs dynamic allocation), identical seeds and failures.
func HHChurn(scale Scale, seed int64) *HHChurnResult {
	res := &HHChurnResult{Scale: scale, Seed: seed, Slots: 8}
	churn := traffic.ChurnConfig{
		Entries:       pick(scale, 48, 128),
		AggregateBps:  20e6,
		ShiftInterval: pick(scale, 2*sim.Second, 3*sim.Second),
		Epochs:        pick(scale, 3, 5),
		HotRanks:      res.Slots, // churned-in prefixes are outside the static top-k
		Seed:          seed,
	}
	sched := traffic.NewChurnSchedule(churn)

	// One failure target per epoch: the hottest prefix at epoch 0, the
	// first newly-hot prefix afterwards.
	targets := make([]netsim.EntryID, sched.Epochs())
	for e := range targets {
		if fresh := sched.NewlyHot(e); len(fresh) > 0 {
			targets[e] = fresh[0]
		} else {
			targets[e] = sched.Ranks(e)[0]
		}
	}

	static := runHHChurn(seed, sched, targets, res.Slots, false, nil)
	dynamic := runHHChurn(seed, sched, targets, res.Slots, true, &res.HH)

	var staticTTLs, dynamicTTLs []sim.Time
	for e, entry := range targets {
		row := HHChurnRow{Epoch: e, Entry: entry, NewlyHot: e > 0}
		row.StaticDetected, row.StaticTTL = static[e].Detected, static[e].Latency
		row.DynamicDetected, row.DynamicTTL = dynamic[e].Detected, dynamic[e].Latency
		res.Rows = append(res.Rows, row)
		if row.NewlyHot {
			staticTTLs = append(staticTTLs, row.StaticTTL)
			dynamicTTLs = append(dynamicTTLs, row.DynamicTTL)
		}
	}
	res.StaticMedian = ttlMedian(staticTTLs)
	res.DynamicMedian = ttlMedian(dynamicTTLs)
	return res
}

// ttlMedian is the upper median (sorted[len/2]) of ttls, 0 when empty; the
// one median every fleet-era table prints.
func ttlMedian(ttls []sim.Time) sim.Time {
	if len(ttls) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), ttls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// runHHChurn executes one allocation mode over the shared schedule and
// returns per-epoch detection of the target prefixes. Undetected targets
// carry the run-remainder sentinel latency.
func runHHChurn(seed int64, sched *traffic.ChurnSchedule, targets []netsim.EntryID,
	slots int, dynamic bool, hhOut *fleet.HHSnapshot) map[int]stats.Detection {

	routes := make(map[netsim.EntryID]string, sched.Config().Entries)
	for i := 0; i < sched.Config().Entries; i++ {
		routes[netsim.EntryID(i)] = "hdst"
	}
	cfg := fleet.Config{}
	cfg.Fancy.Tree = tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true}
	cfg.Fancy.TreeSeed = 3
	if dynamic {
		cfg.HH = &fleet.HHFleetConfig{
			Sketch:       hh.Params{Stages: 3, Width: 32, Seed: uint64(seed)},
			DynamicSlots: slots,
		}
	} else {
		cfg.Fancy.HighPriority = sched.Top(0, slots)
	}
	// The trial carries the deployment; the churn workload and its
	// cumulative per-epoch blackholes are not Flows and gray-link Faults,
	// so they go onto the started run below.
	r := mustStart(fleet.Trial{
		Seed: seed, Routes: routes, Config: cfg, Duration: sched.Duration(),
		Spec: topo.Spec{
			Switches: []string{"up", "down"},
			Links:    []topo.LinkSpec{{A: "up", B: "down", Delay: 2 * sim.Millisecond}},
			Hosts:    []topo.HostSpec{{Name: "hsrc", Attach: "up"}, {Name: "hdst", Attach: "down"}},
		},
	})
	s, n, f := r.Sim, r.Net, r.Fleet

	// Detection taps the upstream detector directly (fleet wired its own
	// handler; chain ours in front) so both modes are measured at the
	// same point, before any correlator policy.
	det := f.Detectors["up"]
	out := make(map[int]stats.Detection, len(targets))
	epochOf := make(map[netsim.EntryID]int, len(targets))
	failAt := make(map[netsim.EntryID]sim.Time, len(targets))
	prev := det.OnEvent
	mark := func(entry netsim.EntryID) {
		e := epochOf[entry]
		if out[e].Detected {
			return
		}
		out[e] = stats.Detection{Detected: true, Latency: s.Now() - failAt[entry]}
	}
	var failed []netsim.EntryID // the targets whose failure has begun
	det.OnEvent = func(ev fancy.Event) {
		for _, entry := range failed {
			if det.Implicates(ev, entry) {
				mark(entry)
			}
		}
		prev(ev)
	}

	// Failure schedule: at every epoch's fail time the link's per-entry
	// blackhole is replaced with the cumulative target set, so earlier
	// failures persist across epoch boundaries.
	for e, entry := range targets {
		e, entry := e, entry
		at := sched.EpochStart(e) + hhChurnFailDelay
		s.ScheduleAt(at, func() {
			epochOf[entry] = e
			failAt[entry] = at
			failed = append(failed, entry)
			n.Direction("up", "down").SetFailure(
				netsim.FailEntries(seed+int64(e)+2, at, 1.0, failed...))
		})
	}

	sched.Launch(s, n.Hosts["hsrc"])
	r.Finish()

	for e, entry := range targets {
		if !out[e].Detected {
			out[e] = stats.Detection{Latency: sched.Duration() - failAt[entry]}
		}
	}
	if hhOut != nil {
		*hhOut = f.Snapshot().HH
	}
	return out
}

// Render prints the per-epoch table plus the medians the sweep compares.
func (r *HHChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== churning heavy hitters: dynamic vs static dedicated-counter allocation (%s, %d slots) ==\n",
		r.Scale, r.Slots)
	headers := []string{"Epoch", "Entry", "NewlyHot", "Static TTD", "Dynamic TTD"}
	var rows [][]string
	fmtTTL := func(detected bool, ttl sim.Time) string {
		if !detected {
			return fmt.Sprintf(">%v", ttl)
		}
		return ttl.String()
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Epoch),
			fmt.Sprintf("%d", row.Entry),
			fmt.Sprintf("%v", row.NewlyHot),
			fmtTTL(row.StaticDetected, row.StaticTTL),
			fmtTTL(row.DynamicDetected, row.DynamicTTL),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	fmt.Fprintf(&b, "newly-hot median time-to-detect: static %v, dynamic %v\n",
		r.StaticMedian, r.DynamicMedian)
	fmt.Fprintf(&b, "allocation loop: reports=%d promotions=%d demotions=%d flaps-suppressed=%d deferred=%d\n",
		r.HH.Reports, r.HH.Promotions, r.HH.Demotions, r.HH.FlapsSuppressed, r.HH.Deferred)
	return b.String()
}
