package exp

// Two sensitivity sweeps the evaluation text reports without a figure:
//
//   - §5.1.1: "we first evaluate the impact of the exchange frequency of
//     counters ... accuracy results are very similar whenever counters'
//     exchange frequency ranges between 50 and 100 ms. This also means the
//     exchange frequency just affects overhead and detection speed."
//
//   - §5: "We also experiment with lower link delays ... for 1 ms links,
//     detection speed doubles for dedicated counters, and increases by
//     ≈15 % for hash-based trees."

import (
	"fmt"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
)

// FreqRow is one exchange-interval setting's outcome.
type FreqRow struct {
	Interval    sim.Time
	TPR         float64
	MeanDetSecs float64
	CtlBytes    uint64 // control overhead during the run
}

// FreqResult is the exchange-frequency sweep.
type FreqResult struct{ Rows []FreqRow }

// Render prints the sweep.
func (r *FreqResult) Render() string {
	var b strings.Builder
	b.WriteString("== §5.1.1 sweep: counters' exchange frequency (dedicated) ==\n")
	headers := []string{"Interval", "TPR", "MeanDet", "CtlBytes"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Interval.String(),
			fmt.Sprintf("%.2f", row.TPR),
			fmt.Sprintf("%.3fs", row.MeanDetSecs),
			fmt.Sprintf("%d", row.CtlBytes),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// ExchangeFrequencySweep measures TPR, detection speed and control
// overhead across exchange intervals on a fixed 50 % loss workload.
func ExchangeFrequencySweep(scale Scale, seed int64) *FreqResult {
	intervals := []sim.Time{25 * sim.Millisecond, 50 * sim.Millisecond,
		100 * sim.Millisecond, 200 * sim.Millisecond}
	reps := pick(scale, 3, 10)
	duration := pick(scale, 8*sim.Second, 30*sim.Second)
	const entry = netsim.EntryID(42)

	return &FreqResult{Rows: trials(len(intervals), func(i int) FreqRow {
		interval := intervals[i]
		acc := stats.Acc{Cap: duration.Seconds()}
		var ctl uint64
		for rep := 0; rep < reps; rep++ {
			cfg := fancy.Config{
				HighPriority:     []netsim.EntryID{entry},
				Tree:             tree.Params{Width: 64, Depth: 3, Split: 2, Pipelined: true},
				ExchangeInterval: interval,
			}
			s := seed + int64(rep)*7919
			sc := &Scenario{
				Seed: s, Cfg: cfg, Delay: 10 * sim.Millisecond,
				Duration: duration, FailAt: sim.Time(1+s%1000) * sim.Millisecond,
				LossRate: 0.5, Failed: []netsim.EntryID{entry},
				Loads:            []EntryLoad{{Entry: entry, RateBps: 1e6, FlowsPerSec: 50}},
				StopWhenDetected: true,
			}
			out := sc.Run()
			acc.Add(out.PerEntry[entry])
			ctl += out.CtlBytes
		}
		return FreqRow{
			Interval:    interval,
			TPR:         acc.TPR(),
			MeanDetSecs: acc.MeanLatency(),
			CtlBytes:    ctl / uint64(reps),
		}
	})}
}

// DelayRow is one link-delay setting's outcome.
type DelayRow struct {
	Delay         sim.Time
	DedicatedSecs float64
	TreeSecs      float64
}

// DelayResult is the link-delay sweep.
type DelayResult struct{ Rows []DelayRow }

// Render prints the sweep.
func (r *DelayResult) Render() string {
	var b strings.Builder
	b.WriteString("== §5 sweep: inter-switch link delay vs detection speed ==\n")
	headers := []string{"Delay", "Dedicated", "Hash-tree"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Delay.String(),
			fmt.Sprintf("%.3fs", row.DedicatedSecs),
			fmt.Sprintf("%.3fs", row.TreeSecs),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// DelaySweep measures mean detection time for a blackholed dedicated entry
// and a blackholed tree entry at 1 ms and 10 ms link delays.
func DelaySweep(scale Scale, seed int64) *DelayResult {
	delays := []sim.Time{1 * sim.Millisecond, 10 * sim.Millisecond}
	reps := pick(scale, 16, 40)
	duration := pick(scale, 8*sim.Second, 30*sim.Second)

	// One cell per (delay, dedicated or tree entry).
	secs := trials(2*len(delays), func(c int) float64 {
		delay, dedicated := delays[c/2], c%2 == 0
		entry := netsim.EntryID(42)
		hp := []netsim.EntryID{entry}
		if !dedicated {
			hp = []netsim.EntryID{1}
		}
		acc := stats.Acc{Cap: duration.Seconds()}
		// Failure times must sample the session cycle uniformly or the
		// phase-dependent part of the latency is aliased away.
		rng := simRand(seed + int64(delay))
		for rep := 0; rep < reps; rep++ {
			s := seed + int64(rep)*104729
			sc := &Scenario{
				Seed: s, Cfg: fancy.Config{
					HighPriority: hp,
					Tree:         tree.Params{Width: 64, Depth: 3, Split: 2, Pipelined: true},
				},
				Delay: delay, Duration: duration,
				FailAt:   sim.Time(1000+rng.Intn(2000)) * sim.Millisecond,
				LossRate: 1.0, Failed: []netsim.EntryID{entry},
				Loads:            []EntryLoad{{Entry: entry, RateBps: 2e6, FlowsPerSec: 50}},
				StopWhenDetected: true,
			}
			out := sc.Run()
			acc.Add(out.PerEntry[entry])
		}
		return acc.MeanLatency()
	})
	res := &DelayResult{}
	for i, delay := range delays {
		res.Rows = append(res.Rows, DelayRow{Delay: delay, DedicatedSecs: secs[2*i], TreeSecs: secs[2*i+1]})
	}
	return res
}
