// Package stats aggregates experiment outcomes (true positive rate,
// detection time, false positives) and renders the text tables and heatmaps
// that the benchmark harness prints for each paper figure.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fancy/internal/sim"
)

// Detection is the outcome of one failure-detection trial.
type Detection struct {
	Detected bool
	Latency  sim.Time // valid when Detected
}

// Acc accumulates detection trials.
type Acc struct {
	trials    int
	detected  int
	latencies []float64 // seconds

	// Cap is the latency charged to undetected trials in means (the
	// paper reports 30 s — the experiment duration — for missed
	// failures). Zero means undetected trials are excluded from times.
	Cap float64
}

// Add records one trial.
func (a *Acc) Add(d Detection) {
	a.trials++
	if d.Detected {
		a.detected++
		a.latencies = append(a.latencies, d.Latency.Seconds())
	}
}

// TPR is the fraction of trials where the failure was detected.
func (a *Acc) TPR() float64 {
	if a.trials == 0 {
		return 0
	}
	return float64(a.detected) / float64(a.trials)
}

// MeanLatency averages detection latency in seconds, charging Cap for each
// missed trial when Cap > 0.
func (a *Acc) MeanLatency() float64 {
	n := len(a.latencies)
	sum := 0.0
	for _, l := range a.latencies {
		sum += l
	}
	if a.Cap > 0 {
		miss := a.trials - a.detected
		sum += float64(miss) * a.Cap
		n += miss
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean averages xs (NaN for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Heatmap renders a labelled grid, mirroring the paper's Figure 7/9 layout
// (rows: entry sizes; columns: loss rates).
type Heatmap struct {
	Title    string
	RowLabel string
	Rows     []string
	Cols     []string
	Cells    [][]float64 // [row][col]
	Format   string      // cell format, default "%5.2f"
}

// Render returns the heatmap as a text table.
func (h *Heatmap) Render() string {
	format := h.Format
	if format == "" {
		format = "%5.2f"
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	rowW := len(h.RowLabel)
	for _, r := range h.Rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	cellW := 0
	for _, c := range h.Cols {
		if len(c) > cellW {
			cellW = len(c)
		}
	}
	if w := len(fmt.Sprintf(format, 0.0)); w > cellW {
		cellW = w
	}
	fmt.Fprintf(&b, "%-*s", rowW+2, h.RowLabel)
	for _, c := range h.Cols {
		fmt.Fprintf(&b, " %*s", cellW, c)
	}
	b.WriteByte('\n')
	for i, r := range h.Rows {
		fmt.Fprintf(&b, "%-*s", rowW+2, r)
		for j := range h.Cols {
			v := math.NaN()
			if i < len(h.Cells) && j < len(h.Cells[i]) {
				v = h.Cells[i][j]
			}
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %*s", cellW, "-")
			} else {
				fmt.Fprintf(&b, " %*s", cellW, fmt.Sprintf(format, v))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders a simple aligned text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
