package exp

// Ablation studies for the design choices DESIGN.md calls out:
//
//   - stop-and-wait vs the §4.1 strawman (continuous counting with
//     in-packet session IDs): reliability under reverse-path loss and
//     blackhole starvation, against memory cost;
//   - max-difference vs random zoom-counter selection (§4.2 footnote 1):
//     how fast the traffic-weighted bulk of a multi-entry failure is
//     localized;
//   - Blink vs FANcY on minority-flow gray failures (§2.3).

import (
	"fmt"
	"strings"

	"fancy/internal/baseline/blink"
	core "fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// StrawmanRow is one protocol variant's outcome.
type StrawmanRow struct {
	Protocol          string
	ReverseLoss       float64
	MemoryBits        int
	Verified          float64 // fraction of sessions with usable measurements
	DetectedPartial   bool    // 50% per-entry loss detected
	DetectedBlackhole bool
}

// StrawmanResult is the stop-and-wait vs strawman comparison.
type StrawmanResult struct{ Rows []StrawmanRow }

// Render prints the comparison table.
func (r *StrawmanResult) Render() string {
	var b strings.Builder
	b.WriteString("== Ablation: stop-and-wait vs §4.1 strawman ==\n")
	headers := []string{"Protocol", "RevLoss", "Memory", "Verified", "Detects 50%", "Detects blackhole"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Protocol, LossLabel(row.ReverseLoss),
			fmt.Sprintf("%db", row.MemoryBits),
			fmt.Sprintf("%.0f%%", row.Verified*100),
			fmt.Sprintf("%v", row.DetectedPartial),
			fmt.Sprintf("%v", row.DetectedBlackhole),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// AblationStrawman compares FANcY's stop-and-wait counting protocol with
// the continuous-counting strawman at several history depths, with and
// without reverse-path loss.
func AblationStrawman(scale Scale, seed int64) *StrawmanResult {
	duration := pick(scale, 6*sim.Second, 20*sim.Second)
	// Per reverse-loss level, one row for FANcY (k = 0) and one per
	// strawman history depth.
	ks := []int{0, 1, 2, 4}
	return &StrawmanResult{Rows: trials(2*len(ks), func(c int) StrawmanRow {
		revLoss, k := []float64{0, 0.3}[c/len(ks)], ks[c%len(ks)]
		if k == 0 {
			// FANcY stop-and-wait: one dedicated entry = 80 bits;
			// retransmissions make every session usable.
			return StrawmanRow{Protocol: "fancy-stop-and-wait", ReverseLoss: revLoss,
				MemoryBits: core.DedicatedEntryBits, Verified: 1,
				DetectedPartial:   runFancyOnce(seed, revLoss, 0.5, duration),
				DetectedBlackhole: runFancyOnce(seed+1, revLoss, 1.0, duration)}
		}
		cfg := core.StrawmanConfig{Entry: 7, History: k}
		row := StrawmanRow{
			Protocol:    fmt.Sprintf("strawman-k%d", k),
			ReverseLoss: revLoss,
			MemoryBits:  cfg.MemoryBits(),
		}
		row.Verified, row.DetectedPartial = runStrawmanOnce(seed+int64(k), cfg, revLoss, 0.5, duration)
		_, row.DetectedBlackhole = runStrawmanOnce(seed+int64(k)+10, cfg, revLoss, 1.0, duration)
		return row
	})}
}

func runFancyOnce(seed int64, revLoss, failRate float64, duration sim.Time) bool {
	sc := &Scenario{
		Seed: seed, Cfg: core.Config{
			HighPriority: []netsim.EntryID{7},
			Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
		},
		Delay: 10 * sim.Millisecond, Duration: duration,
		FailAt: 1 * sim.Second, LossRate: failRate,
		Failed: []netsim.EntryID{7},
		Loads:  []EntryLoad{{Entry: 7, RateBps: 2e6}},
		UDP:    true, StopWhenDetected: true, ReverseLoss: revLoss,
	}
	return sc.Run().PerEntry[7].Detected
}

func runStrawmanOnce(seed int64, cfg core.StrawmanConfig, revLoss, failRate float64,
	duration sim.Time) (verified float64, detected bool) {

	s := sim.New(seed)
	lc := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 10e9}
	bed := netsim.NewLinkBed(s, lc, lc, false)

	var reverse *netsim.Failure
	if revLoss > 0 {
		reverse = netsim.FailUniform(seed+5, 0, revLoss)
	}
	snd := core.NewStrawmanSender(s, bed.Up, 1, cfg)
	core.NewStrawmanReceiver(s, bed.Down, 0, snd, reverse, cfg)

	traffic.NewUDPSource(s, bed.Src, 1, cfg.Entry, netsim.EntryAddr(cfg.Entry, 1),
		2e6, 1000, duration).Start()
	bed.Link.AB.SetFailure(netsim.FailEntries(seed+2, 1*sim.Second, failRate, cfg.Entry))
	s.Run(duration)
	return snd.VerifiedFraction(), snd.Mismatches > 0
}

// SelectionRow is one policy's outcome in the zoom-selection ablation.
type SelectionRow struct {
	Policy            string
	HeavyDetectedSecs float64 // time to detect the traffic-heaviest failed entry
	TPR               float64
}

// SelectionResult compares max-difference against random selection.
type SelectionResult struct{ Rows []SelectionRow }

// Render prints the table.
func (r *SelectionResult) Render() string {
	var b strings.Builder
	b.WriteString("== Ablation: zoom counter selection policy (§4.2 fn.1) ==\n")
	headers := []string{"Policy", "HeavyEntryDet", "TPR"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy,
			fmt.Sprintf("%.2fs", row.HeavyDetectedSecs),
			fmt.Sprintf("%.2f", row.TPR),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// AblationSelection fails a set of entries with very skewed traffic and
// measures how quickly each policy localizes the heaviest one — the
// property the max-difference choice optimizes ("prioritize failure
// detection for most traffic").
func AblationSelection(scale Scale, seed int64) *SelectionResult {
	duration := pick(scale, 15*sim.Second, 30*sim.Second)
	reps := pick(scale, 3, 10)
	nFailed := 8

	policies := []core.ZoomSelection{core.SelectMaxDiff, core.SelectRandom}
	return &SelectionResult{Rows: trials(len(policies), func(i int) SelectionRow {
		policy := policies[i]
		var heavy []float64
		acc := stats.Acc{Cap: duration.Seconds()}
		for rep := 0; rep < reps; rep++ {
			failed := make([]netsim.EntryID, nFailed)
			loads := make([]EntryLoad, nFailed)
			for i := range failed {
				failed[i] = netsim.EntryID(1000 + i)
				rate := 50e3 // light tail entries
				if i == 0 {
					rate = 5e6 // the heavy entry
				}
				loads[i] = EntryLoad{Entry: failed[i], RateBps: rate}
			}
			sc := &Scenario{
				Seed: seed + int64(rep)*313,
				Cfg: core.Config{
					HighPriority:  []netsim.EntryID{1},
					Tree:          tree.Params{Width: 64, Depth: 3, Split: 1, Pipelined: true},
					ZoomSelection: policy,
				},
				Delay: 10 * sim.Millisecond, Duration: duration,
				FailAt: 1 * sim.Second, LossRate: 1.0,
				Failed: failed, Loads: loads, UDP: true,
			}
			out := sc.Run()
			for _, e := range failed {
				acc.Add(out.PerEntry[e])
			}
			if d := out.PerEntry[failed[0]]; d.Detected {
				heavy = append(heavy, d.Latency.Seconds())
			} else {
				heavy = append(heavy, duration.Seconds())
			}
		}
		name := "max-diff"
		if policy == core.SelectRandom {
			name = "random"
		}
		return SelectionRow{
			Policy:            name,
			HeavyDetectedSecs: stats.Mean(heavy),
			TPR:               acc.TPR(),
		}
	})}
}

// BlinkRow is one detector's outcome in the Blink comparison.
type BlinkRow struct {
	Scenario      string
	BlinkDetected bool
	BlinkSecs     float64
	FancyDetected bool
	FancySecs     float64
}

// BlinkResult compares Blink and FANcY on the same failures.
type BlinkResult struct{ Rows []BlinkRow }

// Render prints the table.
func (r *BlinkResult) Render() string {
	var b strings.Builder
	b.WriteString("== Ablation: Blink vs FANcY (§2.3) ==\n")
	headers := []string{"Failure", "Blink", "FANcY"}
	var rows [][]string
	fmtDet := func(det bool, secs float64) string {
		if !det {
			return "missed"
		}
		return fmt.Sprintf("%.2fs", secs)
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario,
			fmtDet(row.BlinkDetected, row.BlinkSecs),
			fmtDet(row.FancyDetected, row.FancySecs),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// AblationBlink runs both detectors on (a) a failure blackholing all flows
// and (b) a gray failure blackholing 20% of flows: Blink detects only the
// former; FANcY detects both.
func AblationBlink(scale Scale, seed int64) *BlinkResult {
	duration := pick(scale, 10*sim.Second, 20*sim.Second)
	cases := []struct {
		name     string
		fraction float64
	}{
		{"all flows (hard failure)", 1.0},
		{"20% of flows (gray)", 0.20},
	}
	return &BlinkResult{Rows: trials(len(cases), func(i int) BlinkRow {
		row := BlinkRow{Scenario: cases[i].name}
		row.BlinkDetected, row.BlinkSecs, row.FancyDetected, row.FancySecs =
			runBlinkVsFancy(seed, cases[i].fraction, duration)
		return row
	})}
}

func runBlinkVsFancy(seed int64, fraction float64, duration sim.Time) (bool, float64, bool, float64) {
	s := sim.New(seed)
	lc := netsim.LinkConfig{Delay: 5 * sim.Millisecond, RateBps: 10e9}
	bed := netsim.NewLinkBed(s, lc, lc, false)

	const entry = netsim.EntryID(100)
	bd := blink.New(s, entry)
	bed.Up.AddIngressHook(bd)

	cfg := core.Config{
		HighPriority: []netsim.EntryID{entry},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
	}
	pair, err := core.DeployLink(bed, cfg)
	if err != nil {
		panic(err)
	}
	var fancyAt sim.Time
	pair.Upstream.OnEvent = func(ev core.Event) {
		if ev.Kind == core.EventDedicated && ev.Entry == entry && fancyAt == 0 {
			fancyAt = ev.Time
		}
	}

	// 40 long-lived TCP flows at 100 kbps each.
	drv := traffic.NewDriver(s, bed.Src, bed.Dst, tcp.Config{})
	var specs []traffic.FlowSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, traffic.FlowSpec{
			Entry: entry, Start: sim.Time(i) * 5 * sim.Millisecond,
			Bytes: int64(100e3 / 8 * duration.Seconds()), RateBps: 100e3,
		})
	}
	drv.Schedule(specs)

	const failAt = 2 * sim.Second
	bed.Link.AB.SetFailure(netsim.FailFlows(seed+3, failAt, fraction, 1.0))
	s.Run(duration)

	blinkSecs, fancySecs := 0.0, 0.0
	if bd.Detected() {
		blinkSecs = (bd.FailureAt - failAt).Seconds()
	}
	if fancyAt > 0 {
		fancySecs = (fancyAt - failAt).Seconds()
	}
	return bd.Detected(), blinkSecs, fancyAt > 0, fancySecs
}
