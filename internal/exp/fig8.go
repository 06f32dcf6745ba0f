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

// Fig8Result reports, for each zooming speed and loss rate, the smallest
// entry (by traffic rank in the grid) for which the hash-based tree reaches
// a TPR of at least 95% — Figure 8's y axis ("Entry Size Rank": lower ranks
// correspond to smaller traffic).
type Fig8Result struct {
	Zooming []sim.Time
	Loss    []float64
	// MinRank[z][l] is the rank of the smallest detectable entry: rank 1
	// is the grid's smallest entry (4 Kbps), rank len(grid) the largest.
	// 0 means no grid row reached the TPR target.
	MinRank [][]int
	Grid    []GridRow
}

// Render prints the rank table.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 8: minimum entry size for TPR ≥ 95%% ==\n")
	headers := []string{"Zooming"}
	for _, l := range r.Loss {
		headers = append(headers, LossLabel(l))
	}
	var rows [][]string
	for zi, z := range r.Zooming {
		row := []string{z.String()}
		for li := range r.Loss {
			rank := r.MinRank[zi][li]
			if rank == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%d (%s)", rank, r.Grid[len(r.Grid)-rank].Label))
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// Figure8 sweeps the tree's zooming speed (counting session duration) and
// measures the minimum entry size reaching 95% TPR per loss rate (§5.1.2).
// Smaller minimum entries are better; the paper's takeaway is that accuracy
// is insensitive to zooming speeds between 50 and 200 ms.
func Figure8(scale Scale, seed int64) *Fig8Result {
	zooms := []sim.Time{10 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond}
	losses := pick(scale, []float64{1.0, 0.10, 0.01}, []float64{1.0, 0.5, 0.1, 0.01, 0.001})
	rows := pick(scale, QuickGrid, PaperGrid)
	reps := pick(scale, 2, 10)
	duration := pick(scale, 12*sim.Second, 30*sim.Second)
	const entry = netsim.EntryID(1000)

	// One cell per (zooming speed, loss rate): scan from the smallest entry
	// (last grid row) upward; the first row reaching the TPR target gives
	// the minimum size.
	ranks := trials(len(zooms)*len(losses), func(c int) int {
		zi, li := c/len(losses), c%len(losses)
		for ri := len(rows) - 1; ri >= 0; ri-- {
			row := rows[ri]
			var acc stats.Acc
			for rep := 0; rep < reps; rep++ {
				cfg := fancy.Config{
					HighPriority:    []netsim.EntryID{1},
					Tree:            tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
					TreeSeed:        13,
					ZoomingInterval: zooms[zi],
				}
				s := seed + int64(zi)*31 + int64(li)*7919 + int64(rep)*104729 + int64(ri)
				sc := &Scenario{
					Seed: s, Cfg: cfg, Delay: 10 * sim.Millisecond,
					Duration: duration, FailAt: sim.Time(1+s%1500) * sim.Millisecond,
					LossRate: losses[li], Failed: []netsim.EntryID{entry},
					Loads:            []EntryLoad{{Entry: entry, RateBps: row.RateBps, FlowsPerSec: row.FlowsPerSec}},
					StopWhenDetected: true,
				}
				out := sc.Run()
				acc.Add(out.PerEntry[entry])
			}
			if acc.TPR() >= 0.95 {
				return len(rows) - ri
			}
		}
		return 0
	})
	res := &Fig8Result{Zooming: zooms, Loss: losses, Grid: rows}
	for zi := range zooms {
		res.MinRank = append(res.MinRank, ranks[zi*len(losses):(zi+1)*len(losses)])
	}
	return res
}
