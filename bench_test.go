package fancy

// One benchmark per table and figure of the paper's evaluation. Each wraps
// the corresponding driver in internal/exp at Quick scale (subsampled
// grids, shortened runs); `cmd/fancy-bench -full` regenerates the
// paper-scale versions. The benchmark output includes the rendered rows so
// `go test -bench=.` doubles as a reproduction run; EXPERIMENTS.md records
// paper-vs-measured values.

import (
	"testing"
	"time"

	"fancy/internal/exp"
	"fancy/internal/netsim"
)

const benchSeed = 20220822 // SIGCOMM'22 started on August 22

func BenchmarkTable2LossRadar(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table2()
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func BenchmarkFigure2NetSeer(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure2()
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func BenchmarkFigure7Dedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure7(exp.Quick, benchSeed)
		if r.TPR[0][0] < 0.99 {
			b.Fatalf("dedicated TPR regression: %v", r.TPR[0][0])
		}
	}
}

func BenchmarkFigure8ZoomingSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure8(exp.Quick, benchSeed)
		if len(r.MinRank) != 4 {
			b.Fatal("missing zooming speeds")
		}
	}
}

func BenchmarkFigure9HashTreeSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure9Single(exp.Quick, benchSeed)
		if r.TPR[0][0] < 0.99 {
			b.Fatalf("tree TPR regression: %v", r.TPR[0][0])
		}
	}
}

func BenchmarkFigure9HashTreeMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure9Multi(exp.Quick, benchSeed)
		if r.TPR[0][0] < 0.8 {
			b.Fatalf("multi-entry TPR regression: %v", r.TPR[0][0])
		}
	}
}

func BenchmarkUniformFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.UniformFailures(exp.Quick, benchSeed)
		for j := range r.LossRates {
			if !r.Detected[j] {
				b.Fatalf("uniform loss %v undetected", r.LossRates[j])
			}
		}
	}
}

func BenchmarkTable3Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table3(exp.Quick, benchSeed)
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.BaselineComparison(exp.Quick, benchSeed)
		if len(r.Rows) != 5 {
			b.Fatal("missing designs")
		}
	}
}

func BenchmarkTable4Resources(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Table4()
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func BenchmarkTable5TraceStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table5(exp.Quick)
	}
}

func BenchmarkFigure10Reroute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure10(exp.Quick, benchSeed)
		for _, s := range r.Series {
			if s.ReroutedAt == 0 {
				b.Fatalf("%s: reroute regression", s.Label)
			}
		}
	}
}

func BenchmarkFleetAbilene(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.FleetAbilene(exp.Quick, benchSeed)
		for _, row := range r.Rows {
			if !row.Exact {
				b.Fatalf("%s: localization regression", row.Link)
			}
		}
	}
}

func BenchmarkFigure11Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure11(exp.Quick, benchSeed)
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := exp.Overhead()
		if o.DedicatedFraction <= 0 {
			b.Fatal("overhead regression")
		}
	}
}

func BenchmarkSweepExchangeFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.ExchangeFrequencySweep(exp.Quick, benchSeed)
		if len(r.Rows) != 4 {
			b.Fatal("missing intervals")
		}
	}
}

func BenchmarkSweepLinkDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.DelaySweep(exp.Quick, benchSeed)
		if len(r.Rows) != 2 {
			b.Fatal("missing delays")
		}
	}
}

func BenchmarkAblationStrawman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.AblationStrawman(exp.Quick, benchSeed)
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.AblationSelection(exp.Quick, benchSeed)
		if len(r.Rows) != 2 {
			b.Fatal("missing policies")
		}
	}
}

func BenchmarkAblationBlink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.AblationBlink(exp.Quick, benchSeed)
		if len(r.Rows) != 2 {
			b.Fatal("missing scenarios")
		}
	}
}

func BenchmarkVerifiedReroute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.VerifiedReroute(exp.Quick, benchSeed)
		if r.BaselineLoopAtoms < 1 {
			b.Fatal("baseline installed no loop; the chaos composition regressed")
		}
		for _, row := range r.Rows {
			if !row.Exact || row.Rejected == 0 || row.Repaired == 0 || row.Unsafe != 0 {
				b.Fatalf("seed %d: gate regression %+v", row.Seed, row)
			}
		}
	}
}

func BenchmarkHHChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.HHChurn(exp.Quick, benchSeed)
		if r.DynamicMedian >= r.StaticMedian {
			b.Fatalf("dynamic allocation regression: median %v >= static %v",
				r.DynamicMedian, r.StaticMedian)
		}
	}
}

// TestBenchArtifact regenerates BENCH_fleet.json, the machine-readable
// benchmark cells (TTL medians per sweep cell plus wall-clock) that CI
// archives as a build artifact. Wall-clock is measured here, outside the
// simulator, which is why the walltime suppressions are sound.
func TestBenchArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("artifact generation skipped in -short mode")
	}
	var cells []exp.BenchCell
	stamp := func(run func() []exp.BenchCell) {
		start := time.Now() //lint:allow walltime wall-clock of the host run, not simulated time
		out := run()
		wall := time.Since(start).Seconds() //lint:allow walltime wall-clock of the host run, not simulated time
		for i := range out {
			out[i].WallSeconds = wall
		}
		cells = append(cells, out...)
	}
	stamp(func() []exp.BenchCell { return exp.FleetAbilene(exp.Quick, benchSeed).BenchCells(benchSeed) })
	stamp(func() []exp.BenchCell { return exp.FleetAbileneVerified(exp.Quick, benchSeed).BenchCells(benchSeed) })
	stamp(func() []exp.BenchCell { return exp.HHChurn(exp.Quick, benchSeed).BenchCells() })
	stamp(func() []exp.BenchCell { return exp.VerifiedReroute(exp.Quick, benchSeed).BenchCells() })
	stamp(func() []exp.BenchCell {
		epoch := time.Now() //lint:allow walltime stopwatch epoch for the latency cell, measured outside the simulator
		return []exp.BenchCell{exp.VerifyLatencyCell(benchSeed, func() float64 {
			return time.Since(epoch).Seconds() //lint:allow walltime stopwatch read for the latency cell, measured outside the simulator
		})}
	})
	if err := exp.WriteBenchJSON("BENCH_fleet.json", cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.WallSeconds <= 0 || (c.TTLMedianMs <= 0 && c.Experiment != "fleet") {
			t.Errorf("degenerate cell: %+v", c)
		}
	}
}

// BenchmarkDetectorHotPath measures the per-packet cost of the detector's
// egress tagging + counting on a monitored link, the data-plane fast path.
func BenchmarkDetectorHotPath(b *testing.B) {
	s := NewSim(1)
	ml := NewMonitoredLink(s, Config{
		HighPriority: []EntryID{10},
		MemoryBytes:  20_000,
	})
	ml.UDP(10, 50e6, 0, Time(b.N+1)*Millisecond)
	ml.UDP(500, 50e6, 0, Time(b.N+1)*Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N) * Millisecond)
}

// BenchmarkSimEventChurn measures the engine's steady-state event cycle:
// one self-rescheduling After chain, pop + execute + recycle per iteration.
// The pooled engine must not allocate here.
func BenchmarkSimEventChurn(b *testing.B) {
	s := NewSim(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		s.After(Microsecond, tick)
	}
	s.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N) * Microsecond)
	if n < b.N {
		b.Fatalf("executed %d ticks, want ≥ %d", n, b.N)
	}
}

// BenchmarkSimTimerStop measures schedule + cancel of a long-horizon timer,
// the Timer.Stop O(log n) removal path that used to leak cancelled events.
func BenchmarkSimTimerStop(b *testing.B) {
	s := NewSim(1)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.ScheduleTimer(Second, nop)
		tm.Stop()
	}
	if s.Pending() != 0 {
		b.Fatalf("leaked %d events", s.Pending())
	}
}

// BenchmarkSimHeap measures raw heap throughput under a deep queue: 1024
// staggered self-rescheduling chains keep the 4-ary heap realistically
// loaded while events push and pop past each other.
func BenchmarkSimHeap(b *testing.B) {
	s := NewSim(1)
	const chains = 1024
	for i := 0; i < chains; i++ {
		period := Time(1000 + i) // staggered so chains interleave
		var tick func()
		tick = func() { s.After(period, tick) }
		s.After(period, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N) * 2000)
}

// BenchmarkLinkLane measures the per-packet cost of the serialized per-link
// lane: send, serialize, propagate, deliver, recycle.
func BenchmarkLinkLane(b *testing.B) {
	s := NewSim(1)
	src := NewHost(s, "src")
	dst := NewHost(s, "dst")
	Connect(s, src, 0, dst, 0, netsim.LinkConfig{
		Delay: Millisecond, RateBps: 100e9, QueueBytes: 1 << 24,
	})
	pool := src.Pool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.Get()
		pkt.Proto = netsim.ProtoUDP
		pkt.Size = 1000
		src.Send(pkt)
		s.Run(0)
	}
}
