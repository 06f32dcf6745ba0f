package exp

import (
	"strings"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

func TestTable2Renders(t *testing.T) {
	out := Table2()
	for _, want := range []string{"100Gbps/32p", "400Gbps/64p", "memory size", "read speedup", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Renders(t *testing.T) {
	out := Figure2()
	if !strings.Contains(out, "100Gbps") || !strings.Contains(out, "MB") {
		t.Errorf("Figure2 output malformed:\n%s", out)
	}
	// At 10ms+, NetSeer must be flagged as exceeding available memory.
	if !strings.Contains(out, "!") {
		t.Errorf("Figure2 shows NetSeer operational everywhere:\n%s", out)
	}
}

func TestTable4Renders(t *testing.T) {
	out := Table4()
	for _, want := range []string{"SRAM", "Stateful ALU", "switch.p4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q", want)
		}
	}
}

func TestTable5Renders(t *testing.T) {
	out := Table5(Quick)
	if !strings.Contains(out, "equinix-chicago.dirB-2014") {
		t.Errorf("Table5 missing trace name:\n%s", out)
	}
}

func TestOverheadMatchesPaperOrders(t *testing.T) {
	o := Overhead()
	// §5.3: dedicated ≈0.014% of a 100 Gbps link (we compute the same
	// order), tree ≈0.0002%, tags 0.13%.
	if o.DedicatedFraction < 1e-5 || o.DedicatedFraction > 1e-3 {
		t.Errorf("dedicated overhead fraction = %v, want ≈1e-4", o.DedicatedFraction)
	}
	if o.TreeFraction < 1e-7 || o.TreeFraction > 1e-4 {
		t.Errorf("tree overhead fraction = %v, want ≈4e-6", o.TreeFraction)
	}
	if o.TagFraction < 0.001 || o.TagFraction > 0.002 {
		t.Errorf("tag fraction = %v, want 0.0013", o.TagFraction)
	}
	if !strings.Contains(o.Render(), "overhead") {
		t.Error("Render missing content")
	}
}

func TestScenarioDedicatedDetects(t *testing.T) {
	sc := &Scenario{
		Seed: 1, Cfg: fig7Cfg(42), Delay: 10 * sim.Millisecond,
		Duration: 8 * sim.Second, FailAt: 1 * sim.Second, LossRate: 1.0,
		Failed:           []netsim.EntryID{42},
		Loads:            []EntryLoad{{Entry: 42, RateBps: 1e6, FlowsPerSec: 50}},
		StopWhenDetected: true,
	}
	out := sc.Run()
	d := out.PerEntry[42]
	if !d.Detected {
		t.Fatal("scenario blackhole not detected")
	}
	if d.Latency <= 0 || d.Latency > sim.Second {
		t.Errorf("latency = %v, want < 1s", d.Latency)
	}
	if out.CtlBytes == 0 {
		t.Error("no control overhead recorded")
	}
}

func TestUniformFailuresQuick(t *testing.T) {
	res := UniformFailures(Quick, 3)
	for i, loss := range res.LossRates {
		if !res.Detected[i] {
			t.Errorf("uniform loss %v not detected", loss)
			continue
		}
		// §5.1.3: detection in about one zooming interval (plus session
		// open/close overhead).
		if res.Latency[i] > 1.0 {
			t.Errorf("uniform loss %v latency = %.2fs, want ≲0.5s", loss, res.Latency[i])
		}
	}
}

func TestFigure7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Figure7(Quick, 5)
	if len(r.TPR) != len(QuickGrid) || len(r.TPR[0]) != len(QuickLossRates) {
		t.Fatalf("grid dims %dx%d", len(r.TPR), len(r.TPR[0]))
	}
	// Top-left (large entry, blackhole): perfect detection, fast.
	if r.TPR[0][0] < 0.99 {
		t.Errorf("TPR[10Mbps][100%%] = %v, want 1", r.TPR[0][0])
	}
	if r.DetTime[0][0] > 0.5 {
		t.Errorf("detection time[10Mbps][100%%] = %vs, want ≈0.1s", r.DetTime[0][0])
	}
	// Monotone-ish: the biggest entry at the highest loss cannot be worse
	// than the smallest entry at the lowest loss.
	last := len(r.TPR) - 1
	lcol := len(QuickLossRates) - 1
	if r.TPR[0][0] < r.TPR[last][lcol] {
		t.Errorf("TPR grid inverted: corner values %v vs %v", r.TPR[0][0], r.TPR[last][lcol])
	}
	out := r.Render()
	if !strings.Contains(out, "Avg TPR") || !strings.Contains(out, "10Mbps/100") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestFigure9SingleQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Figure9Single(Quick, 7)
	if r.TPR[0][0] < 0.99 {
		t.Errorf("tree TPR[10Mbps][100%%] = %v, want 1", r.TPR[0][0])
	}
	// Tree detection needs ≈3 zooming intervals: distinctly slower than
	// dedicated counters but still sub-second.
	if r.DetTime[0][0] < 0.4 || r.DetTime[0][0] > 2.0 {
		t.Errorf("tree detection time = %vs, want ≈0.7s", r.DetTime[0][0])
	}
}

func TestFigure9MultiQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	r := Figure9Multi(Quick, 9)
	// Multi-entry failures: high TPR on high-traffic rows at 100% loss.
	if r.TPR[0][0] < 0.8 {
		t.Errorf("multi-entry TPR[1Mbps][100%%] = %v, want ≈1", r.TPR[0][0])
	}
	// Detection is spread out by the k-per-session zooming budget: the
	// mean must exceed the single-entry ≈0.7 s.
	if r.DetTime[0][0] < 0.7 {
		t.Errorf("multi-entry detection = %vs, should be slower than single", r.DetTime[0][0])
	}
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep")
	}
	r := Table3(Quick, 11)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	first := r.Rows[0] // 100% loss
	if first.TPRBytes < 0.5 {
		t.Errorf("TPR bytes at 100%% loss = %.2f, want high", first.TPRBytes)
	}
	var low Table3Row
	for _, row := range r.Rows {
		if row.LossRate == 0.01 {
			low = row
		}
	}
	// §5.2: accuracy drops sharply at ≤1% loss (paper: 19.5%). With our
	// byte-weighted sampling the drop must at least be visible.
	if low.Trials > 0 && low.TPRPrefixes > first.TPRPrefixes {
		t.Errorf("1%% loss TPR (%v) higher than 100%% loss TPR (%v)", low.TPRPrefixes, first.TPRPrefixes)
	}
	if !strings.Contains(r.Render(), "Hash-Tree") {
		t.Error("render malformed")
	}
}

func TestBaselineComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep")
	}
	r := BaselineComparison(Quick, 13)
	if len(r.Rows) != 5 {
		t.Fatalf("want 5 designs (3 strawmen + lossradar + netseer), got %d", len(r.Rows))
	}
	byName := map[string]BaselineRow{}
	for _, row := range r.Rows {
		byName[row.Design] = row
	}
	single := byName["single-counter"]
	per := byName["per-entry"]
	bloom := byName["counting-bloom"]
	// The single counter detects but implicates everything.
	if single.TPRPrefixes < 0.8 {
		t.Errorf("single-counter TPR = %v", single.TPRPrefixes)
	}
	if single.FalsePerTrial < 10 {
		t.Errorf("single-counter FPs = %v, want ≈all active prefixes", single.FalsePerTrial)
	}
	// Per-entry is exact but needs orders of magnitude more memory than
	// the Bloom filter.
	if per.FalsePerTrial != 0 {
		t.Errorf("per-entry FPs = %v, want 0", per.FalsePerTrial)
	}
	if per.MemoryBytes <= bloom.MemoryBytes {
		t.Error("per-entry should need more memory than the Bloom filter")
	}
	if bloom.TPRPrefixes < 0.8 {
		t.Errorf("counting-bloom TPR = %v", bloom.TPRPrefixes)
	}
}

func TestFigure10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("case study")
	}
	r := Figure10(Quick, 15)
	if len(r.Series) != 6 {
		t.Fatalf("want 6 series, got %d", len(r.Series))
	}
	for _, s := range r.Series {
		if s.ReroutedAt == 0 {
			t.Errorf("%s: never rerouted", s.Label)
			continue
		}
		lat := s.ReroutedAt - s.FailAt
		if lat <= 0 || lat > 2*sim.Second {
			t.Errorf("%s: reroute latency %v", s.Label, lat)
		}
		// Post-reroute throughput must recover: the average of the last
		// 10 bins should be at least half the pre-failure average.
		n := len(s.Mbps)
		pre := avg(s.Mbps[5:15])
		post := avg(s.Mbps[n-10:])
		if post < pre/2 {
			t.Errorf("%s: post-reroute throughput %.1f vs pre %.1f", s.Label, post, pre)
		}
	}
	if !strings.Contains(r.Render(), "reroute") {
		t.Error("render malformed")
	}
}

func TestFigure11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep")
	}
	r := Figure11(Quick, 17)
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 rows at quick scale, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TPR < 0.5 {
			t.Errorf("%s: TPR = %.2f, want most of a 10-burst detected", row.Config, row.TPR)
		}
	}
	if !strings.Contains(r.Render(), "d/k/w") {
		t.Error("render malformed")
	}
}

func TestFigure8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("zoom sweep")
	}
	r := Figure8(Quick, 19)
	if len(r.MinRank) != 4 {
		t.Fatalf("want 4 zooming speeds, got %d", len(r.MinRank))
	}
	// At 100% loss, even small entries are detectable for every zooming
	// speed ≥50 ms (column 0 = 100%).
	for zi := 1; zi < len(r.Zooming); zi++ {
		if r.MinRank[zi][0] == 0 {
			t.Errorf("zoom %v: no entry reached 95%% TPR at 100%% loss", r.Zooming[zi])
		}
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Error("render malformed")
	}
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestAblationStrawman(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	r := AblationStrawman(Quick, 23)
	byKey := map[string]StrawmanRow{}
	for _, row := range r.Rows {
		byKey[row.Protocol+LossLabel(row.ReverseLoss)] = row
	}
	// FANcY detects both failure types regardless of reverse loss.
	for _, k := range []string{"fancy-stop-and-wait0%", "fancy-stop-and-wait30%"} {
		row := byKey[k]
		if !row.DetectedPartial || !row.DetectedBlackhole {
			t.Errorf("%s: detections = %v/%v, want true/true", k, row.DetectedPartial, row.DetectedBlackhole)
		}
	}
	// The strawman loses measurements under reverse loss...
	s1 := byKey["strawman-k1"+LossLabel(0.3)]
	if s1.Verified > 0.85 {
		t.Errorf("strawman-k1 verified %.2f under 30%% reverse loss, want ≈0.7", s1.Verified)
	}
	// ...and is blind to blackholes (receiver starvation).
	if s1.DetectedBlackhole {
		t.Error("strawman detected a blackhole despite receiver starvation")
	}
	// Memory grows linearly with the history depth.
	if byKey["strawman-k40%"].MemoryBits <= byKey["strawman-k10%"].MemoryBits {
		t.Error("history depth must cost memory")
	}
	if !strings.Contains(r.Render(), "strawman") {
		t.Error("render malformed")
	}
}

func TestAblationSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	r := AblationSelection(Quick, 29)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 policies, got %d", len(r.Rows))
	}
	maxDiff, random := r.Rows[0], r.Rows[1]
	if maxDiff.Policy != "max-diff" || random.Policy != "random" {
		t.Fatalf("unexpected policy order: %+v", r.Rows)
	}
	// Max-difference must localize the heavy entry at least as fast as
	// random selection (the point of §4.2 footnote 1).
	if maxDiff.HeavyDetectedSecs > random.HeavyDetectedSecs+0.3 {
		t.Errorf("max-diff heavy detection %.2fs slower than random %.2fs",
			maxDiff.HeavyDetectedSecs, random.HeavyDetectedSecs)
	}
	if !strings.Contains(r.Render(), "max-diff") {
		t.Error("render malformed")
	}
}

func TestAblationBlink(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	r := AblationBlink(Quick, 31)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(r.Rows))
	}
	hard, gray := r.Rows[0], r.Rows[1]
	if !hard.BlinkDetected || !hard.FancyDetected {
		t.Errorf("hard failure: blink=%v fancy=%v, want both detected", hard.BlinkDetected, hard.FancyDetected)
	}
	if gray.BlinkDetected {
		t.Error("Blink detected a minority-flow gray failure (should be fundamentally unable, §2.3)")
	}
	if !gray.FancyDetected {
		t.Error("FANcY missed the minority-flow gray failure")
	}
	if !strings.Contains(r.Render(), "Blink") {
		t.Error("render malformed")
	}
}

func TestExchangeFrequencySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := ExchangeFrequencySweep(Quick, 37)
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 intervals, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TPR < 0.99 {
			t.Errorf("interval %v: TPR %.2f, want 1 (50%% loss, busy entry)", row.Interval, row.TPR)
		}
	}
	// §5.1.1: frequency affects detection speed — shorter intervals must
	// not be slower than the 200 ms setting.
	if r.Rows[0].MeanDetSecs > r.Rows[3].MeanDetSecs {
		t.Errorf("25ms interval slower than 200ms: %.3f vs %.3f",
			r.Rows[0].MeanDetSecs, r.Rows[3].MeanDetSecs)
	}
	// ...and overhead: shorter intervals cost more control bytes per run.
	if r.Rows[0].CtlBytes <= r.Rows[3].CtlBytes {
		t.Errorf("25ms interval cheaper than 200ms: %d vs %d bytes",
			r.Rows[0].CtlBytes, r.Rows[3].CtlBytes)
	}
	if !strings.Contains(r.Render(), "exchange frequency") {
		t.Error("render malformed")
	}
}

func TestDelaySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := DelaySweep(Quick, 41)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 delays, got %d", len(r.Rows))
	}
	fast, slow := r.Rows[0], r.Rows[1]
	// §5: dedicated detection speeds up markedly at 1 ms (paper: 2×,
	// because the session cycle is RTT-bound); the tree improves less
	// (paper: ≈15%, it is zooming-interval-bound). With quick-scale
	// repetition counts we assert the robust part: a clear dedicated
	// speed-up and no tree slow-down.
	if gain := slow.DedicatedSecs / fast.DedicatedSecs; gain < 1.15 {
		t.Errorf("dedicated gain at 1ms = %.2fx, want ≥1.15x", gain)
	}
	if fast.TreeSecs > slow.TreeSecs*1.05 {
		t.Errorf("tree at 1ms (%.3fs) slower than at 10ms (%.3fs)", fast.TreeSecs, slow.TreeSecs)
	}
	if !strings.Contains(r.Render(), "link delay") {
		t.Error("render malformed")
	}
}

func TestFleetAbileneQuick(t *testing.T) {
	r := FleetAbilene(Quick, 20220822, false)
	if len(r.Rows) != len(quickFleetLinks) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(quickFleetLinks))
	}
	for _, row := range r.Rows {
		if !row.Exact {
			t.Errorf("%s: not localized exactly", row.Link)
		}
		if row.Exact && (row.TTL <= 0 || row.TTL > sim.Second) {
			t.Errorf("%s: time-to-localize %v, want within 1s", row.Link, row.TTL)
		}
		if row.Protected && !row.Rerouted {
			t.Errorf("%s: protected entry was not rerouted", row.Link)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "exact localization: 3/3") {
		t.Fatalf("unexpected render:\n%s", out)
	}
}

func TestFleetChaosQuick(t *testing.T) {
	r := FleetChaos(Quick, 20220822)
	want := len(fleetChaosConfigs()) * len(quickFleetLinks)
	if len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		// The survivability contract: impairments may slow localization
		// down, but accuracy must stay exact and verdicts unique.
		if !row.Exact {
			t.Errorf("%s/%s: not localized exactly", row.Config, row.Link)
		}
		if row.Verdicts > 1 {
			t.Errorf("%s/%s: %d localization events, want 1", row.Config, row.Link, row.Verdicts)
		}
		if row.Exact && (row.TTL <= 0 || row.TTL > 2*sim.Second) {
			t.Errorf("%s/%s: time-to-localize %v, want within 2s", row.Config, row.Link, row.TTL)
		}
		if row.Protected && !row.Rerouted {
			t.Errorf("%s/%s: protected entry was not rerouted", row.Config, row.Link)
		}
		switch row.Config {
		case "perfect":
			if row.MgmtLost != 0 {
				t.Errorf("perfect config lost %d datagrams", row.MgmtLost)
			}
		case "loss20+crash":
			if row.MgmtLost == 0 {
				t.Errorf("%s: no management loss exercised", row.Link)
			}
			if row.Handbacks == 0 {
				t.Errorf("%s: no degraded-mode handback after the crash", row.Link)
			}
		case "replica3+leaderkill":
			if row.MgmtLost == 0 {
				t.Errorf("%s: no management loss exercised", row.Link)
			}
			if row.Failovers == 0 {
				t.Errorf("%s: leader killed but no takeover recorded", row.Link)
			}
		}
	}
	out := r.Render()
	if !strings.Contains(out, "loss20+crash") || !strings.Contains(out, "per-link detail") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	if !strings.Contains(out, "replica3+leaderkill") || !strings.Contains(out, "Failovers") {
		t.Fatalf("replicated cell missing from render:\n%s", out)
	}
}
