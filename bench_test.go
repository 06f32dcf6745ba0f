package fancy

// Microbenchmarks of the engine and the per-packet layers. The paper's
// tables and figures are reproduced by `go run ./cmd/fancy-bench` and pinned
// byte for byte by cmd/fancy-bench/testdata/*.golden; host cost end to end
// is `go run ./benchmark`.

import (
	"testing"

	"fancy/internal/netsim"
)

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
