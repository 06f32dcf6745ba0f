package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fancy/internal/sim"
)

func TestAccTPRAndLatency(t *testing.T) {
	var a Acc
	a.Cap = 30
	a.Add(Detection{Detected: true, Latency: 1 * sim.Second})
	a.Add(Detection{Detected: true, Latency: 3 * sim.Second})
	a.Add(Detection{Detected: false})

	if a.trials != 3 {
		t.Errorf("trials = %d", a.trials)
	}
	if got := a.TPR(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("TPR = %v, want 2/3", got)
	}
	// Mean with cap: (1+3+30)/3.
	if got := a.MeanLatency(); math.Abs(got-34.0/3) > 1e-9 {
		t.Errorf("MeanLatency = %v, want 11.33", got)
	}
}

func TestAccNoCapExcludesMisses(t *testing.T) {
	var a Acc
	a.Add(Detection{Detected: true, Latency: 2 * sim.Second})
	a.Add(Detection{Detected: false})
	if got := a.MeanLatency(); got != 2 {
		t.Errorf("MeanLatency = %v, want 2 (miss excluded)", got)
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.TPR() != 0 || a.MeanLatency() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPropertyPercentileBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, p := range []float64{0, 10, 50, 90, 100} {
			v := Percentile(xs, p)
			if v < s[0] || v > s[len(s)-1] {
				return false
			}
		}
		// Monotone in p.
		return Percentile(xs, 10) <= Percentile(xs, 90)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestHeatmapRender(t *testing.T) {
	h := &Heatmap{
		Title:    "Avg TPR",
		RowLabel: "Entry",
		Rows:     []string{"500Kbps/50", "8Kbps/1"},
		Cols:     []string{"100", "1", "0.1"},
		Cells:    [][]float64{{1, 1, 0.2}, {1, 0.6}},
	}
	out := h.Render()
	if !strings.Contains(out, "Avg TPR") || !strings.Contains(out, "500Kbps/50") {
		t.Errorf("missing labels in:\n%s", out)
	}
	if !strings.Contains(out, "0.20") {
		t.Errorf("missing cell value in:\n%s", out)
	}
	// Missing cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent cell in:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestTableRender(t *testing.T) {
	out := Table([]string{"Loss", "TPR"}, [][]string{{"100%", "0.913"}, {"0.1%", "0.566"}})
	if !strings.Contains(out, "Loss") || !strings.Contains(out, "0.913") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("got %d lines, want 4", len(lines))
	}
}
