package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// The large workloads run at queue depth in the tens of thousands with
// cold caches (sim.ns_per_event several times the hot-cache probe's), so
// bytes per event are a budget, not an accident. An event is six words:
// its target is an Actor, two words where a func was one, because a
// pointer converted to an interface allocates nothing where a method
// value bound to it is a heap object per receiver. The sixth word cost
// no memory: a 40-byte event allocated alone took a 48-byte size class
// already. In paired benchmark runs on all four workloads it cost no time
// either: sim.ns_per_event fell and wall_s stayed inside its bound. A new
// field has to earn its cache lines on grid144-full first.
func TestEventStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("sizeof(event) = %d bytes, want 48 (at, seq, act (two words), next, prev)", got)
	}
}

// Run used to clamp the clock to the horizon even when Stop ended the run
// early, so callers measuring "when did the run end" saw the horizon
// instead of the stop time.
func TestRunReturnsStopTime(t *testing.T) {
	s := New(1)
	var at2 Time
	s.After(1*Second, func() {})
	s.After(2*Second, func() {
		at2 = s.Now()
		s.Stop()
	})
	s.After(3*Second, func() {})
	end := s.Run(10 * Second)
	if end != 2*Second || at2 != 2*Second {
		t.Fatalf("Run after Stop returned %v, want stop time %v", end, 2*Second)
	}
	if s.Now() != 2*Second {
		t.Fatalf("Now() = %v after stopped run, want %v", s.Now(), 2*Second)
	}
	// The event at 3s is still pending; resuming executes it and then the
	// horizon clamp applies as usual.
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after stop, want 1", s.Pending())
	}
	if end := s.Run(10 * Second); end != 10*Second {
		t.Fatalf("resumed Run returned %v, want horizon %v", end, 10*Second)
	}
}

// Timer.Stop used to only mark the event dead, leaving the closure (and
// anything it captured) referenced by the queue until its timestamp popped,
// and Pending was an O(n) scan over the corpses.
func TestTimerStopReleasesEvent(t *testing.T) {
	s := New(1)
	payload := make([]byte, 1<<20)
	tm := s.ScheduleTimer(1000*Second, func() { _ = payload })
	freeBefore := freeLen(s)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false for a pending timer")
	}
	// The event must be gone from the queue immediately, not at pop time...
	if s.mask != 0 {
		t.Fatalf("queue buckets %b hold events after Stop, want none", s.mask)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", got)
	}
	// ...and recycled into the pool with its target cleared, so the
	// captured payload is unreachable from the Sim. The pool grows by
	// chunks, so the free list held the rest of the first chunk already:
	// Stop adds exactly the one event, at its head.
	if got, want := freeLen(s), freeBefore+1; got != want {
		t.Fatalf("free list holds %d events after Stop, want %d (one more than before)", got, want)
	}
	if s.free != tm.ev {
		t.Fatal("the stopped event is not at the head of the free list")
	}
	for ev := s.free; ev != nil; ev = ev.next {
		if ev.act != nil {
			t.Fatal("a pooled event still references its target")
		}
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	if tm.Active() {
		t.Fatal("Active() = true after Stop")
	}

	// The same single removal path serves a Stop issued from inside another
	// event's callback at the same timestamp: the pending sibling leaves the
	// queue at once, never runs, and its event is reusable immediately.
	s = New(1)
	var sibling Timer
	siblingRan := false
	s.At(Second, func() {
		ev, before := sibling.ev, s.Pending()
		if !sibling.Stop() {
			t.Error("Stop() = false for a pending sibling at the current timestamp")
		}
		if got := s.Pending(); got != before-1 {
			t.Errorf("Pending() = %d after stopping the sibling, want %d", got, before-1)
		}
		s.After(0, func() {})
		if ev.prev == nil {
			t.Error("the stopped sibling's event was not recycled for the next schedule")
		}
		if sibling.Active() || sibling.Stop() {
			t.Error("the stale sibling handle acts on the event's next occupant")
		}
	})
	sibling = s.ScheduleAt(Second, func() { siblingRan = true })
	s.At(Second, func() {})
	s.Run(0)
	if siblingRan {
		t.Fatal("a sibling stopped at its own timestamp still ran")
	}
	if s.Executed != 3 {
		t.Fatalf("Executed = %d, want 3 (stopper, its zero-delay child, the third event)", s.Executed)
	}
}

// freeLen counts the events in s's pool.
func freeLen(s *Sim) int {
	n := 0
	for ev := s.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// A stale Timer handle whose event was recycled for an unrelated schedule
// must not cancel the new event.
func TestStaleTimerHandleIsInert(t *testing.T) {
	s := New(1)
	tm := s.ScheduleTimer(1*Second, func() {})
	s.Run(2 * Second) // fires; event returns to the pool
	ran := false
	s.After(1*Second, func() { ran = true }) // reuses the pooled event
	if tm.Stop() {
		t.Fatal("stale handle Stop() = true")
	}
	if tm.Active() {
		t.Fatal("stale handle Active() = true")
	}
	s.Run(5 * Second)
	if !ran {
		t.Fatal("recycled event was cancelled through a stale handle")
	}
}

// Steady-state scheduling through the handle-free API must not allocate:
// events come from the pool and go back to it.
func TestAfterDoesNotAllocate(t *testing.T) {
	s := New(1)
	var fn func()
	n := 0
	fn = func() {
		if n++; n < 100 {
			s.After(Millisecond, fn)
		}
	}
	// Warm the pool and the queue; a self-rescheduling chain runs every one
	// of its ticks.
	s.After(Millisecond, fn)
	s.Run(0)
	if n != 100 {
		t.Fatalf("the After chain executed %d ticks, want 100", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		s.After(Millisecond, fn)
		s.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("handle-free schedule/run loop allocates %.1f objects per run, want 0", allocs)
	}
}

// ScheduleAt returns its handle by value, so a caller that drops it
// allocates nothing. Pinned because the benchmark's Abilene trials schedule
// this way.
func TestScheduleAtDroppedHandleDoesNotAllocate(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.ScheduleAt(0, fn)
	s.Run(0) // warm the event pool
	if avg := testing.AllocsPerRun(100, func() {
		s.ScheduleAt(s.Now(), fn)
		s.Run(0)
	}); avg != 0 {
		t.Errorf("ScheduleAt with its handle dropped allocates %.1f objects, want 0", avg)
	}
}

// A Sequence keeps one element queued and rearms it with itself as the
// event's Actor, so its cost does not grow with n: a warmed 10 000-element
// run to completion allocates exactly what a 10-element one does.
func TestSequenceDoesNotAllocatePerElement(t *testing.T) {
	s := New(1)
	var base Time
	ran := 0
	at := func(i int) Time { return base + Time(i/3)*Microsecond } // ties, too
	fn := func(int) { ran++ }
	cost := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			base, ran = s.Now(), 0
			s.Sequence(n, at, fn)
			s.Run(0)
			if ran != n {
				t.Fatalf("a %d-element Sequence ran %d elements", n, ran)
			}
		})
	}
	cost(10) // warm the event pool
	small, large := cost(10), cost(10_000)
	if large != small {
		t.Fatalf("a 10 000-element Sequence allocates %.1f objects, a 10-element one %.1f; want equal", large, small)
	}
	if small > 1 {
		t.Errorf("a Sequence allocates %.1f objects, want ≤ 1 (its state, which is its events' Actor)", small)
	}
}

func TestPendingCountsStoppedCorrectly(t *testing.T) {
	s := New(1)
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, s.ScheduleTimer(Time(i+1)*Second, func() {}))
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	for _, tm := range timers[:5] {
		tm.Stop()
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending() = %d after stopping 5, want 5", got)
	}
	s.Run(0)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
	if s.Executed != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed)
	}
}

// churnQueue holds s at depth pending events spread log-uniformly from
// 1 ns to 268 ms ahead: each reschedules itself as far ahead when it runs,
// and stops the Run that ran it. The returned step arms a timer at such a
// delay, stops it, and pops one event.
func churnQueue(s *Sim, depth int) (step func()) {
	rng := rand.New(rand.NewSource(1))
	delay := func() Time {
		d := Time(1) << rng.Intn(28)
		return d + Time(rng.Int63n(int64(d)))
	}
	var refill func()
	refill = func() {
		s.After(delay(), refill)
		s.Stop()
	}
	for i := 0; i < depth; i++ {
		s.After(delay(), refill)
	}
	nop := func() {}
	return func() {
		tm := s.ScheduleTimer(delay(), nop)
		tm.Stop()
		s.Run(0)
	}
}

// The queue's steady state allocates nothing at link-trace-tcp's depth
// either: arming, cancelling and popping among 16 k pending events spread
// over every bucket from 1 ns to 268 ms moves events between buckets and
// through the pool, never into new memory.
func TestDeepQueueChurnDoesNotAllocate(t *testing.T) {
	const depth = 16_000
	s := New(1)
	step := churnQueue(s, depth)
	for i := 0; i < 1000; i++ {
		step() // warm the pool: the timer needs one event beyond the depth
	}
	before := s.Executed
	if avg := testing.AllocsPerRun(10_000, step); avg != 0 {
		t.Errorf("schedule/stop/pop churn at depth %d allocates %.3f objects per step, want 0", depth, avg)
	}
	if got := s.Executed - before; got != 10_001 {
		t.Errorf("10 001 steps popped %d events, want one each", got)
	}
	if got := s.Pending(); got != depth {
		t.Errorf("Pending() = %d after the churn, want %d", got, depth)
	}
}

// The pool grows by chunks, and events never move: a Timer armed before
// the pool grows still cancels its event after it, and a stale Timer on an
// event of a new chunk stays inactive once the event is recycled, under a
// sequence number no handle was ever given for it.
func TestStaleTimerOnNewChunkIsInert(t *testing.T) {
	s := New(1)
	nop := func() {}
	first := s.ScheduleTimer(Second, nop)
	for i := 1; i < minChunk; i++ {
		s.At(Second, nop) // the rest of the first chunk
	}
	if s.free != nil {
		t.Fatalf("the first chunk has %d events left after %d schedules, want none", freeLen(s), minChunk)
	}
	stale := s.ScheduleTimer(Second, nop) // the head of the second chunk
	if s.chunk != 2*minChunk {
		t.Fatalf("the second chunk holds %d events, want %d", s.chunk, 2*minChunk)
	}
	if !first.Active() || !first.Stop() {
		t.Fatal("a Timer armed before the pool grew lost its event")
	}
	if !stale.Stop() {
		t.Fatal("Stop() = false for a pending timer on the new chunk")
	}
	ran := false
	fresh := s.ScheduleTimer(Second, func() { ran = true }) // reuses stale's event
	if fresh.ev != stale.ev {
		t.Fatal("the next schedule did not recycle the stopped event")
	}
	if stale.Active() || stale.Stop() {
		t.Fatal("a stale handle acts on its recycled event's next occupant")
	}
	if !fresh.Active() {
		t.Fatal("the recycled event's own handle is not active")
	}
	s.Run(0)
	if !ran {
		t.Fatal("the recycled event was cancelled through a stale handle")
	}
	if s.Executed != minChunk {
		t.Fatalf("Executed = %d, want %d", s.Executed, minChunk)
	}
}

// A cold Sim that queues n events at once allocates by chunk, not by
// event: 100 000 events take the doubling chunks of 16, 32, …, 1 024
// events (2 032 in 7 objects), then 96 chunks of 1 024.
func TestColdQueueAllocatesPerChunk(t *testing.T) {
	const n, chunks = 100_000, 7 + 96
	nop := func() {}
	cold := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := New(1)
			for i := 0; i < n; i++ {
				s.At(Time(i), nop)
			}
		})
	}
	if got := cold(n) - cold(0); got != chunks {
		t.Errorf("a cold Sim queueing %d events allocates %.1f objects for them, want %d (one per chunk)", n, got, chunks)
	}
}
