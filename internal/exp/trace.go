package exp

// Table 3 (§5.2): FANcY on CAIDA-like traces — accuracy in bytes and
// prefixes, split by dedicated counters vs hash-based tree, plus detection
// time. The baseline comparison (§5.2) runs the simple designs on the same
// traces.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"fancy/internal/baseline/lossradar"
	"fancy/internal/baseline/netseer"
	"fancy/internal/baseline/simple"
	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// Table3Row aggregates one loss rate's results.
type Table3Row struct {
	LossRate     float64
	TPRBytes     float64
	TPRPrefixes  float64
	TPRDedicated float64
	TPRTree      float64
	DetTimeSecs  float64
	Trials       int
	DedTrials    int
	TreeTrials   int
}

// Table3Result is the full table.
type Table3Result struct {
	Rows  []Table3Row
	Scale Scale
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("== Table 3: FANcY on synthesized CAIDA-like traces ==\n")
	headers := []string{"Loss", "TPR Bytes", "TPR Prefixes", "Dedicated", "Hash-Tree", "DetTime", "Trials"}
	pct := func(v float64, trials int) string {
		if trials == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", v*100)
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			LossLabel(row.LossRate),
			pct(row.TPRBytes, row.Trials),
			pct(row.TPRPrefixes, row.Trials),
			pct(row.TPRDedicated, row.DedTrials),
			pct(row.TPRTree, row.TreeTrials),
			fmt.Sprintf("%.2fs", row.DetTimeSecs),
			fmt.Sprintf("%d", row.Trials),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// traceScenario holds the pieces shared by Table 3 and the baseline
// comparison: a synthesized trace replayed through the two-switch topology.
type traceScenario struct {
	trace     *traffic.Trace
	dedicated []netsim.EntryID
	cfg       fancy.Config
	duration  sim.Time
	failAt    sim.Time
}

func buildTraceScenario(scale Scale, seed int64) *traceScenario {
	cfg := traffic.StandardTraces(pick(scale, 400.0, 50.0))[0]
	cfg.Seed = seed
	cfg.Duration = pick(scale, 12*sim.Second, 30*sim.Second)
	tr := traffic.Synthesize(cfg)

	nDedicated := pick(scale, 100, 500)
	dedicated := make([]netsim.EntryID, nDedicated)
	for i := range dedicated {
		dedicated[i] = netsim.EntryID(i) // historical top-N by construction
	}
	return &traceScenario{
		trace:     tr,
		dedicated: dedicated,
		cfg: fancy.Config{
			HighPriority: dedicated,
			Tree:         tree.Params{Width: 190, Depth: 3, Split: 2, Pipelined: true},
			TreeSeed:     17,
		},
		duration: cfg.Duration,
		failAt:   2 * sim.Second,
	}
}

// samplePrefixes picks prefixes to fail, stratified over the slice's
// byte-rank distribution so TPR-bytes and TPR-prefixes both get signal.
// The paper fails the top 10K of ≈250K prefixes (the top ≈4%, carrying
// ≥95% of the bytes) one by one; we sample within the equivalent head.
func (ts *traceScenario) samplePrefixes(n int, rng *rand.Rand) []netsim.EntryID {
	head := ts.trace.Config.Prefixes / 20
	if head < 25 {
		head = 25
	}
	// Make sure the head reaches past the dedicated set so hash-tree
	// prefixes are sampled too (at full scale 10K ≫ 500 guarantees this).
	if min := 2 * len(ts.dedicated); head < min {
		head = min
	}
	top := ts.trace.SliceTop(head)
	if len(top) == 0 {
		return nil
	}
	var out []netsim.EntryID
	for i := 0; i < n; i++ {
		// Stratified: sample rank ~ quadratic so most picks are from the
		// head (where the bytes are) but the tail is represented.
		f := float64(i) / float64(n)
		idx := int(f * f * float64(len(top)-1))
		jitter := 0
		if len(top) > 10 {
			jitter = rng.Intn(len(top) / 10)
		}
		if idx+jitter < len(top) {
			idx += jitter
		}
		out = append(out, top[idx])
	}
	// De-duplicate while keeping order.
	seen := make(map[netsim.EntryID]bool)
	uniq := out[:0]
	for _, e := range out {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	return uniq
}

// prefixBytes returns each prefix's slice bytes.
func (ts *traceScenario) prefixBytes() map[netsim.EntryID]int64 {
	m := make(map[netsim.EntryID]int64)
	for _, f := range ts.trace.Specs {
		m[f.Entry] += f.Bytes
	}
	return m
}

// Table3 runs the trace experiments.
func Table3(scale Scale, seed int64) *Table3Result {
	losses := pick(scale, []float64{1.0, 0.5, 0.1, 0.01},
		[]float64{1.0, 0.75, 0.5, 0.1, 0.01, 0.001})
	nSamples := pick(scale, 6, 40)
	ts := buildTraceScenario(scale, seed)
	bytesOf := ts.prefixBytes()
	dedSet := make(map[netsim.EntryID]bool)
	for _, e := range ts.dedicated {
		dedSet[e] = true
	}
	rng := rand.New(rand.NewSource(seed + 99))
	samples := ts.samplePrefixes(nSamples, rng)

	// Each (loss, sample) trial is one cell of the runner; a row then
	// reduces its loss's cells in sample order.
	n := len(samples)
	cells := trials(len(losses)*n, func(c int) stats.Detection {
		li, i := c/n, c%n
		prefix := samples[i]
		sc := &Scenario{
			Seed: seed + int64(i)*131, Cfg: ts.cfg, Delay: 10 * sim.Millisecond,
			Duration: ts.duration, FailAt: ts.failAt, LossRate: losses[li],
			Failed:           []netsim.EntryID{prefix},
			Loads:            nil, // loads come from the trace below
			StopWhenDetected: true,
		}
		return runTrace(sc, ts.trace).PerEntry[prefix]
	})
	res := &Table3Result{Scale: scale, Rows: make([]Table3Row, len(losses))}
	for li, loss := range losses {
		row := Table3Row{LossRate: loss}
		var detBytes, totBytes float64
		var det, tot, dedDet, dedTot, treeDet, treeTot int
		var lat []float64
		for i, prefix := range samples {
			d := cells[li*n+i]
			tot++
			totBytes += float64(bytesOf[prefix])
			if dedSet[prefix] {
				dedTot++
			} else {
				treeTot++
			}
			if d.Detected {
				det++
				detBytes += float64(bytesOf[prefix])
				lat = append(lat, d.Latency.Seconds())
				if dedSet[prefix] {
					dedDet++
				} else {
					treeDet++
				}
			}
		}
		row.Trials = tot
		row.DedTrials = dedTot
		row.TreeTrials = treeTot
		if tot > 0 {
			row.TPRPrefixes = float64(det) / float64(tot)
		}
		if totBytes > 0 {
			row.TPRBytes = detBytes / totBytes
		}
		if dedTot > 0 {
			row.TPRDedicated = float64(dedDet) / float64(dedTot)
		}
		if treeTot > 0 {
			row.TPRTree = float64(treeDet) / float64(treeTot)
		}
		row.DetTimeSecs = stats.Mean(lat)
		res.Rows[li] = row
	}
	return res
}

// runTrace executes a scenario whose traffic comes from a synthesized
// trace instead of grid loads.
func runTrace(sc *Scenario, tr *traffic.Trace) *Outcome {
	sc.InstallTraffic = func(s *sim.Sim, src, dst *netsim.Host) {
		drv := traffic.NewDriver(s, src, dst, tcp.Config{})
		drv.Schedule(tr.Specs)
	}
	return sc.Run()
}

// BaselineRow is one design's result in the §5.2 comparison. MemoryBytes
// is the design's requirement at ISP scale — a 250K-prefix routing table —
// which is the paper's point of comparison (320 MB for per-prefix counters
// versus FANcY's 1.25 MB).
type BaselineRow struct {
	Design        string
	TPRPrefixes   float64
	FalsePerTrial float64
	MemoryBytes   int
	DetTimeSecs   float64
}

// BaselineResult is the §5.2 comparison output.
type BaselineResult struct {
	LossRate float64
	Rows     []BaselineRow
}

// Render prints the comparison.
func (r *BaselineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== §5.2 baseline comparison (loss %s) ==\n", LossLabel(r.LossRate))
	headers := []string{"Design", "TPR", "FalsePos/trial", "Memory", "DetTime"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Design,
			fmt.Sprintf("%.1f%%", row.TPRPrefixes*100),
			fmt.Sprintf("%.1f", row.FalsePerTrial),
			fmtBytes(row.MemoryBytes),
			fmt.Sprintf("%.2fs", row.DetTimeSecs),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	b.WriteString("(lossradar/netseer run within FANcY's 20 KB budget at simulation-scale\n" +
		" traffic; at ISP line rate the same budgets fail — Table 2 / Figure 2)\n")
	return b.String()
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BaselineComparison runs the simple designs on the same trace scenario and
// loss rate (§5.2): single link counter, one counter per prefix, and a
// counting Bloom filter sized to FANcY's memory budget.
func BaselineComparison(scale Scale, seed int64) *BaselineResult {
	ts := buildTraceScenario(scale, seed)
	loss := 0.10
	nSamples := pick(scale, 5, 30)
	rng := rand.New(rand.NewSource(seed + 7))
	samples := ts.samplePrefixes(nSamples, rng)
	prefixes := ts.trace.Config.Prefixes

	// The counting Bloom filter gets FANcY's per-port budget: 20 KB →
	// 20 KB·8/(32·2) cells.
	bloomCells := 20_000 * 8 / (32 * 2)

	designs := []simple.Design{
		simple.SingleCounter{},
		simple.PerEntry{N: prefixes},
		simple.CountingBloom{M: bloomCells, K: 2, Seed: 5},
	}
	// The §2.3 systems, executable on the same trials. LossRadar gets the
	// IBF cells that fit FANcY's 20 KB budget at 36 B/cell (≈560);
	// NetSeer gets a buffer of the signatures that fit 20 KB at 16 B each
	// (1250 packets — far below this link's bandwidth-delay product).
	rows := []BaselineRow{
		{Design: "lossradar-20KB", MemoryBytes: lossRadarCells * lossradar.CellBytes * 2},
		{Design: "netseer-20KB", MemoryBytes: netSeerBufferPkts * netseer.RecordBytes},
	}
	for _, design := range designs {
		row := BaselineRow{Design: design.Name()}
		switch d := design.(type) {
		case simple.PerEntry:
			// Report at ISP scale: one counter for each of 250K prefixes.
			row.MemoryBytes = simple.PerEntry{N: 250_000}.MemoryBytes(1)
		case simple.CountingBloom:
			row.MemoryBytes = d.MemoryBytes()
		default:
			row.MemoryBytes = 8
		}
		rows = append(rows, row)
	}

	// Each (design, sample) trial is one cell of the runner; a row then
	// reduces its design's cells in sample order.
	n := len(samples)
	cells := trials(len(rows)*n, func(c int) baselineOutcome {
		d, i := c/n, c%n
		switch d {
		case 0:
			return runLossRadarTrial(ts, samples[i], loss, seed+int64(i)*23, seed+2)
		case 1:
			return runNetSeerTrial(ts, samples[i], loss, seed+int64(i)*29, seed+2)
		}
		return runBaselineTrial(ts, designs[d-2], samples[i], loss, seed+int64(i)*17)
	})
	for d := range rows {
		var det, fps int
		var lat []float64
		for _, o := range cells[d*n : (d+1)*n] {
			if o.detected {
				det++
				lat = append(lat, o.latency.Seconds())
			}
			fps += o.falsePositives
		}
		if n > 0 {
			rows[d].TPRPrefixes = float64(det) / float64(n)
		}
		if d < 2 {
			continue // LossRadar and NetSeer report losses, not a detection time
		}
		rows[d].DetTimeSecs = stats.Mean(lat)
		if n > 0 {
			rows[d].FalsePerTrial = float64(fps) / float64(n)
		}
	}
	return &BaselineResult{LossRate: loss, Rows: rows}
}

// newBaselineBed builds the bare link the §2.3/§2.4 baseline trials run on:
// FANcY's own testbed at the paper's 10 ms / 100 Gbps, so all designs are
// compared on the same link.
func newBaselineBed(seed int64) *netsim.LinkBed {
	lc := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 100e9, QueueBytes: 1 << 24}
	return netsim.NewLinkBed(sim.New(seed), lc, lc, false)
}

// replayOn runs one baseline trial on b: the trace slice as closed-loop TCP,
// prefix failing at the slice's failure time.
func (ts *traceScenario) replayOn(b *netsim.LinkBed, failSeed int64, loss float64, prefix netsim.EntryID) {
	traffic.NewDriver(b.Sim, b.Src, b.Dst, tcp.Config{}).Schedule(ts.trace.Specs)
	b.Link.AB.SetFailure(netsim.FailEntries(failSeed, ts.failAt, loss, prefix))
	b.Sim.Run(ts.duration)
}

// The §2.3 systems' budgets: FANcY's 20 KB per port in LossRadar IBF
// cells and in NetSeer packet signatures.
const (
	lossRadarCells    = 20_000 / lossradar.CellBytes
	netSeerBufferPkts = 20_000 / netseer.RecordBytes
)

// runLossRadarTrial runs the executable LossRadar meter pair, budgeted to
// FANcY's per-port memory, on one failure trial.
func runLossRadarTrial(ts *traceScenario, prefix netsim.EntryID, loss float64, seed, failSeed int64) baselineOutcome {
	b := newBaselineBed(seed)
	m := lossradar.NewMeterPair(b.Sim, lossRadarCells, 10*sim.Millisecond)
	b.AttachProbe(m)
	ts.replayOn(b, failSeed, loss, prefix)
	return baselineOutcome{detected: m.LostRecovered[prefix] > 0}
}

// runNetSeerTrial runs the executable NetSeer protocol with a buffer that
// fits FANcY's per-port memory — far below the link's BDP, so most losses
// are unattributable (the Figure 2 regime) — on one failure trial.
func runNetSeerTrial(ts *traceScenario, prefix netsim.EntryID, loss float64, seed, failSeed int64) baselineOutcome {
	b := newBaselineBed(seed)
	p := netseer.NewProtocol(b.Sim, netSeerBufferPkts, 10*sim.Millisecond)
	b.AttachProbe(p)
	ts.replayOn(b, failSeed, loss, prefix)
	return baselineOutcome{detected: p.LossByEntry[prefix] > 0}
}

type baselineOutcome struct {
	detected       bool
	latency        sim.Time
	falsePositives int
}

func runBaselineTrial(ts *traceScenario, design simple.Design, prefix netsim.EntryID,
	loss float64, seed int64) baselineOutcome {

	b := newBaselineBed(seed)
	probe := simple.NewProbe(b.Sim, design, 50*sim.Millisecond)
	b.AttachProbe(probe)
	ts.replayOn(b, seed+2, loss, prefix)

	out := baselineOutcome{}
	if at, ok := probe.EntryFlaggedAt(prefix); ok {
		out.detected = true
		out.latency = at - ts.failAt
	}
	// Count false positives over the prefixes active in the slice.
	active := make(map[netsim.EntryID]bool)
	for _, f := range ts.trace.Specs {
		active[f.Entry] = true
	}
	failed := map[netsim.EntryID]bool{prefix: true}
	var universe []netsim.EntryID
	for e := range active {
		universe = append(universe, e)
	}
	sort.Slice(universe, func(a, b int) bool { return universe[a] < universe[b] })
	out.falsePositives = probe.FalsePositives(universe, failed)
	return out
}
