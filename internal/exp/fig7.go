package exp

import (
	"fmt"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
)

// HeatmapResult is the output of the Figure 7/9-style grid experiments: the
// average TPR and average detection time per (entry size, loss rate) cell.
type HeatmapResult struct {
	Name    string
	Rows    []GridRow
	Loss    []float64
	TPR     [][]float64
	DetTime [][]float64 // seconds
}

// Render prints the two heatmaps side by side, like the paper's figures.
func (r *HeatmapResult) Render() string {
	rows := make([]string, len(r.Rows))
	for i, g := range r.Rows {
		rows[i] = g.Label
	}
	cols := make([]string, len(r.Loss))
	for i, l := range r.Loss {
		cols[i] = LossLabel(l)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	tpr := stats.Heatmap{Title: "Avg TPR", RowLabel: "Entry Size", Rows: rows, Cols: cols, Cells: r.TPR}
	det := stats.Heatmap{Title: "Avg Detection Time (s)", RowLabel: "Entry Size", Rows: rows, Cols: cols, Cells: r.DetTime}
	b.WriteString(tpr.Render())
	b.WriteByte('\n')
	b.WriteString(det.Render())
	return b.String()
}

// grid runs the (rows × loss rates × reps) sweep shared by Figures 7 and 9.
// failedEntries yields the failing entries and their loads for one cell.
func grid(name string, rows []GridRow, losses []float64, reps int,
	duration, failWindow sim.Time, seed int64,
	build func(row GridRow) ([]netsim.EntryID, []EntryLoad, fancy.Config)) *HeatmapResult {

	r := &HeatmapResult{Name: name, Rows: rows, Loss: losses}
	cells := trials(len(rows)*len(losses), func(c int) stats.Acc {
		row, li := rows[c/len(losses)], c%len(losses)
		acc := stats.Acc{Cap: duration.Seconds()}
		for rep := 0; rep < reps; rep++ {
			failed, loads, cfg := build(row)
			s := seed + int64(rep)*7919 + int64(li)*104729
			failAt := sim.Time(1+s%int64(failWindow/sim.Millisecond)) * sim.Millisecond
			sc := &Scenario{
				Seed: s, Cfg: cfg, Delay: 10 * sim.Millisecond,
				Duration: duration, FailAt: failAt, LossRate: losses[li],
				Failed: failed, Loads: loads, StopWhenDetected: true,
			}
			out := sc.Run()
			for _, e := range failed {
				acc.Add(out.PerEntry[e])
			}
		}
		return acc
	})
	for ri := range rows {
		tprRow := make([]float64, len(losses))
		detRow := make([]float64, len(losses))
		for li := range losses {
			acc := &cells[ri*len(losses)+li]
			tprRow[li], detRow[li] = acc.TPR(), acc.MeanLatency()
		}
		r.TPR = append(r.TPR, tprRow)
		r.DetTime = append(r.DetTime, detRow)
	}
	return r
}

// fig7Cfg is the evaluation configuration of §5: a dedicated counter for
// the observed entry and the default 50 ms exchange interval.
func fig7Cfg(entry netsim.EntryID) fancy.Config {
	return fancy.Config{
		HighPriority: []netsim.EntryID{entry},
		Tree:         tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     11,
	}
}

// Figure7 reproduces the dedicated-counter heatmaps: accuracy and detection
// speed across entry sizes and loss rates (§5.1.1). Single-entry failures
// only, because dedicated counters work independently from each other.
func Figure7(scale Scale, seed int64) *HeatmapResult {
	rows := pick(scale, QuickGrid, PaperGrid)
	losses := pick(scale, QuickLossRates, PaperLossRates)
	reps := pick(scale, 2, 10)
	duration := pick(scale, 10*sim.Second, 30*sim.Second)
	const entry = netsim.EntryID(42)
	return grid("Figure 7: dedicated counters", rows, losses, reps,
		duration, 2*sim.Second, seed,
		func(row GridRow) ([]netsim.EntryID, []EntryLoad, fancy.Config) {
			return []netsim.EntryID{entry},
				[]EntryLoad{{Entry: entry, RateBps: row.RateBps, FlowsPerSec: row.FlowsPerSec}},
				fig7Cfg(entry)
		})
}
