package exp

import (
	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// fig9Cfg monitors everything through the hash-based tree (the failed
// entries are best effort; an unused dedicated entry keeps the layout
// realistic).
func fig9Cfg() fancy.Config {
	return fancy.Config{
		HighPriority: []netsim.EntryID{1},
		Tree:         tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     13,
	}
}

// Figure9Single reproduces Figure 9a: hash-tree accuracy and detection
// speed for single-entry failures across entry sizes and loss rates, with
// the 200 ms zooming speed of §5.1.2.
func Figure9Single(scale Scale, seed int64) *HeatmapResult {
	rows := pick(scale, QuickGrid, PaperGrid)
	losses := pick(scale, QuickLossRates, PaperLossRates)
	reps := pick(scale, 2, 10)
	duration := pick(scale, 12*sim.Second, 30*sim.Second)
	const entry = netsim.EntryID(1000)
	return grid("Figure 9a: hash-based tree, single-entry failures", rows, losses, reps,
		duration, 2*sim.Second, seed,
		func(row GridRow) ([]netsim.EntryID, []EntryLoad, fancy.Config) {
			return []netsim.EntryID{entry},
				[]EntryLoad{{Entry: entry, RateBps: row.RateBps, FlowsPerSec: row.FlowsPerSec}},
				fig9Cfg()
		})
}

// fig9MultiGrid caps the per-entry rate so the aggregate (rate × number of
// simultaneously failing entries) stays simulable; the paper's Figure 9b
// grid similarly tops out at 200 Mbps per entry.
func fig9MultiGrid(scale Scale) []GridRow {
	if scale == Full {
		var rows []GridRow
		for _, r := range PaperGrid {
			if r.RateBps <= 10e6 {
				rows = append(rows, r)
			}
		}
		return rows
	}
	return []GridRow{
		{"1Mbps/50", 1e6, 50}, {"500Kbps/25", 500e3, 25},
		{"100Kbps/10", 100e3, 10}, {"25Kbps/5", 25e3, 5},
	}
}

// Figure9Multi reproduces Figure 9b: failures hitting many entries at the
// same time (paper: 100; Quick scale: 10), which stress the zooming
// pipeline — detection time grows to several seconds because FANcY starts
// at most `split` new explorations per session.
func Figure9Multi(scale Scale, seed int64) *HeatmapResult {
	rows := fig9MultiGrid(scale)
	losses := pick(scale, []float64{1.0, 0.10, 0.01}, PaperLossRates)
	reps := pick(scale, 1, 10)
	duration := pick(scale, 20*sim.Second, 30*sim.Second)
	n := pick(scale, 10, 100)

	failed := make([]netsim.EntryID, n)
	for i := range failed {
		failed[i] = netsim.EntryID(2000 + i)
	}
	name := "Figure 9b: hash-based tree, multi-entry failures"
	return grid(name, rows, losses, reps, duration, 2*sim.Second, seed,
		func(row GridRow) ([]netsim.EntryID, []EntryLoad, fancy.Config) {
			loads := make([]EntryLoad, n)
			for i, e := range failed {
				loads[i] = EntryLoad{Entry: e, RateBps: row.RateBps, FlowsPerSec: row.FlowsPerSec}
			}
			return failed, loads, fig9Cfg()
		})
}

// UniformResult is the §5.1.3 outcome: whether uniform failures are
// detected as uniform, and how fast.
type UniformResult struct {
	LossRates []float64
	Detected  []bool
	Latency   []float64 // seconds
}

// UniformFailures reproduces §5.1.3: failures hitting every entry (random
// per-packet loss at link level, or the all-prefix bugs of Table 1) are
// classified as uniform — a majority of root counters mismatch — in about
// one zooming interval regardless of the loss rate. The failure drops data
// packets of all entries; for the majority test to have signal, entries
// must cover most of the tree's root counters and each counter must see
// enough packets per session that a drop is likely at the configured rate.
func UniformFailures(scale Scale, seed int64) *UniformResult {
	losses := pick(scale, []float64{1.0, 0.10, 0.02}, []float64{1.0, 0.5, 0.1, 0.01})
	nEntries := pick(scale, 400, 800)
	perEntry := pick(scale, 2e6, 20e6) // 2 Mbps ≈ 250 pps per entry

	res := &UniformResult{LossRates: losses}
	outs := trials(len(losses), func(i int) *Outcome {
		loads := make([]EntryLoad, nEntries)
		failed := make([]netsim.EntryID, nEntries)
		for j := range loads {
			e := netsim.EntryID(100 + j)
			loads[j] = EntryLoad{Entry: e, RateBps: perEntry, FlowsPerSec: 20}
			failed[j] = e
		}
		sc := &Scenario{
			Seed: seed + int64(i), Cfg: fig9Cfg(), Delay: 10 * sim.Millisecond,
			Duration: pick(scale, 8*sim.Second, 30*sim.Second),
			FailAt:   2 * sim.Second, LossRate: losses[i],
			Failed: failed, Loads: loads, UDP: true, StopWhenDetected: true,
		}
		return sc.Run()
	})
	for _, out := range outs {
		res.Detected = append(res.Detected, out.UniformDetected)
		res.Latency = append(res.Latency, out.UniformLatency.Seconds())
	}
	return res
}
