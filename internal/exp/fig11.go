package exp

// Figure 11 / Appendix D: sensitivity analysis of the hash-based tree
// parameters. Eight depth/split/width configurations spanning 125 KB–1 MB
// of per-switch memory are compared on bursts of 10 and 50 simultaneous
// prefix blackholes: TPR, median detection time, detected bytes and false
// positives.

import (
	"fmt"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// TreeConfig is one sensitivity-analysis candidate, labelled
// depth/split/width(memory) like the paper's legend.
type TreeConfig struct {
	Label  string
	Params tree.Params
}

// Fig11Configs are the eight designs of Appendix D (depth/split/width);
// the memory label is the 32-port per-switch total of the pipelined layout.
func Fig11Configs() []TreeConfig {
	mk := func(d, k, w int) TreeConfig {
		p := tree.Params{Width: w, Depth: d, Split: k, Pipelined: true}
		kb := float64(p.MemoryBits()) * 32 / 8 / 1024 // 32 ports
		return TreeConfig{Label: fmt.Sprintf("%d/%d/%d (%.0fKB)", d, k, w, kb), Params: p}
	}
	return []TreeConfig{
		mk(3, 3, 205), mk(3, 2, 190), mk(3, 3, 100), mk(4, 3, 32),
		mk(3, 2, 100), mk(4, 2, 44), mk(3, 1, 110), mk(4, 2, 28),
	}
}

// Fig11Row is one configuration's measurements for one burst size.
type Fig11Row struct {
	Config        string
	Burst         int
	TPR           float64
	MedianDetSecs float64
	DetectedBytes float64 // fraction of failed bytes detected
	FalsePos      float64 // average per run
}

// Fig11Result groups all rows.
type Fig11Result struct{ Rows []Fig11Row }

// Render prints the sensitivity table.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("== Figure 11 (Appendix D): tree parameter sensitivity ==\n")
	headers := []string{"Config d/k/w", "Burst", "TPR", "MedianDet", "DetBytes", "FalsePos"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config, fmt.Sprintf("%d", row.Burst),
			fmt.Sprintf("%.3f", row.TPR),
			fmt.Sprintf("%.2fs", row.MedianDetSecs),
			fmt.Sprintf("%.3f", row.DetectedBytes),
			fmt.Sprintf("%.1f", row.FalsePos),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// Figure11 runs the sensitivity analysis: Zipf traffic over many prefixes,
// bursts of simultaneous blackholes, 100% of memory given to the tree (no
// dedicated counters beyond a placeholder).
func Figure11(scale Scale, seed int64) *Fig11Result {
	bursts := pick(scale, []int{10}, []int{10, 50})
	nPrefixes := pick(scale, 300, 5000)
	aggregate := pick(scale, 30e6, 300e6)
	reps := pick(scale, 1, 10)
	duration := pick(scale, 15*sim.Second, 30*sim.Second)
	configs := Fig11Configs()
	if scale == Quick {
		configs = []TreeConfig{configs[1], configs[3], configs[6]} // 3/2/190, 4/3/32, 3/1/110
	}

	shares := traffic.ZipfShares(nPrefixes, 1.05)
	return &Fig11Result{Rows: trials(len(configs)*len(bursts), func(c int) Fig11Row {
		tc, burst := configs[c/len(bursts)], bursts[c%len(bursts)]
		acc := stats.Acc{Cap: duration.Seconds()}
		var detBytes, totBytes float64
		var fps int
		var lat []float64
		for rep := 0; rep < reps; rep++ {
			s := seed + int64(rep)*7907
			rng := simRand(s)
			// As in Appendix D, only fail prefixes detectable at the
			// configured zooming speed and depth: the head prefixes
			// with enough packets per counting session.
			head := nPrefixes / 10
			if head < 3*burst {
				head = 3 * burst
			}
			var failed []netsim.EntryID
			for len(failed) < burst {
				e := netsim.EntryID(rng.Intn(head))
				dup := false
				for _, f := range failed {
					if f == e {
						dup = true
					}
				}
				if !dup {
					failed = append(failed, e)
				}
			}
			cfg := fancy.Config{
				HighPriority: []netsim.EntryID{netsim.EntryID(nPrefixes + 1)},
				Tree:         tc.Params,
				TreeSeed:     23,
			}
			sc := &Scenario{
				Seed: s, Cfg: cfg, Delay: 10 * sim.Millisecond,
				Duration: duration, FailAt: 2 * sim.Second, LossRate: 1.0,
				Failed: failed, StopWhenDetected: true,
			}
			specs := traffic.ZipfWorkload(nPrefixes, aggregate, float64(nPrefixes)/5, 1.05, duration, rng)
			sc.InstallTraffic = func(sm *sim.Sim, src, dst *netsim.Host) {
				drv := traffic.NewDriver(sm, src, dst, tcp.Config{})
				drv.Schedule(specs)
			}
			out := sc.Run()
			for _, e := range failed {
				d := out.PerEntry[e]
				acc.Add(d)
				totBytes += shares[e]
				if d.Detected {
					detBytes += shares[e]
					lat = append(lat, d.Latency.Seconds())
				}
			}
			fps += out.FalseEntries
		}
		row := Fig11Row{
			Config: tc.Label, Burst: burst,
			TPR:           acc.TPR(),
			MedianDetSecs: stats.Percentile(lat, 50),
			FalsePos:      float64(fps) / float64(reps),
		}
		if totBytes > 0 {
			row.DetectedBytes = detBytes / totBytes
		}
		return row
	})}
}
