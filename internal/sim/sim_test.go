package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2.0", got)
	}
	if got := (1500 * Microsecond).Duration(); got != 1500*time.Microsecond {
		t.Errorf("Duration() = %v, want 1.5ms", got)
	}
	if got := (250 * Millisecond).String(); got != "250ms" {
		t.Errorf("String() = %q, want 250ms", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*Millisecond, func() { order = append(order, 3) })
	s.After(10*Millisecond, func() { order = append(order, 1) })
	s.After(20*Millisecond, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30*Millisecond {
		t.Errorf("final time = %v, want 30ms", s.Now())
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.After(5*Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("events at equal timestamps did not run in insertion order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if len(ticks) < 5 {
			s.After(100*Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.Run(0)
	want := []Time{0, 100 * Millisecond, 200 * Millisecond, 300 * Millisecond, 400 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(ticks), len(want))
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	s := New(1)
	ran := 0
	s.After(1*Second, func() { ran++ })
	s.After(3*Second, func() { ran++ })
	end := s.Run(2 * Second)
	if ran != 1 {
		t.Errorf("ran %d events, want 1", ran)
	}
	if end != 2*Second {
		t.Errorf("Run returned %v, want 2s", end)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	// Resuming past the horizon executes the remaining event.
	s.Run(0)
	if ran != 2 {
		t.Errorf("after resume ran = %d, want 2", ran)
	}
}

func TestHorizonAdvancesClockWhenQueueEmpty(t *testing.T) {
	s := New(1)
	s.Run(5 * Second)
	if s.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.ScheduleTimer(1*Second, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active after scheduling")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Active() {
		t.Error("timer should be inactive after Stop")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	s.Run(0)
	if ran {
		t.Error("cancelled event must not run")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.ScheduleTimer(1*Millisecond, func() {})
	s.Run(0)
	if tm.Active() {
		t.Error("timer should be inactive after firing")
	}
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Error("zero Timer reports Active")
	}
	if tm.Stop() {
		t.Error("zero Timer Stop reports true")
	}
	var nilTm *Timer
	if nilTm.Active() || nilTm.Stop() {
		t.Error("nil *Timer must be inert")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	ran := 0
	s.After(1*Millisecond, func() { ran++; s.Stop() })
	s.After(2*Millisecond, func() { ran++ })
	s.Run(0)
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop should halt the loop)", ran)
	}
	s.Run(0) // resumes
	if ran != 2 {
		t.Errorf("after resume ran = %d, want 2", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(1*Second, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past should panic")
		}
	}()
	s.ScheduleAt(500*Millisecond, func() {})
}

// A horizon behind the clock panics, as scheduling in the past does. Run
// used to move the clock back to it: after Run(150), Run(120) returned 120
// and Now read 120, and an At(130) was then accepted and ran, although
// the clock had already reported 150. A horizon at the clock is a no-op.
func TestRunHorizonInThePastPanics(t *testing.T) {
	s := New(1)
	var ran []Time
	for _, at := range []Time{100, 200} {
		s.At(at, func() { ran = append(ran, s.Now()) })
	}
	if end := s.Run(150); end != 150 {
		t.Fatalf("Run(150) = %v, want 150", end)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Run(120) at 150: no panic")
			} else if !strings.Contains(fmt.Sprint(r), "in the past") {
				t.Errorf("Run(120) at 150: panic %q, want a horizon-in-the-past panic", r)
			}
		}()
		s.Run(120)
	}()
	if s.Now() != 150 {
		t.Errorf("Now() = %v after the refused Run, want 150", s.Now())
	}
	if end := s.Run(150); end != 150 {
		t.Errorf("Run(150) at 150 = %v, want 150", end)
	}
	if end := s.Run(0); end != 200 || len(ran) != 2 {
		t.Errorf("Run(0) = %v having run %v, want 200 having run [100 200]", end, ran)
	}
}

// A Sequence whose element 0 is in the past panics at the call, as At does;
// an element earlier than its predecessor panics when the predecessor runs,
// which is when Sequence queues it, and before that predecessor's fn.
func TestSequencePastPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no panic", what)
			} else if !strings.Contains(fmt.Sprint(r), "in the past") {
				t.Errorf("%s: panic %q, want a schedule-in-the-past panic", what, r)
			}
		}()
		f()
	}

	s := New(1)
	s.At(Second, func() {})
	s.Run(0)
	mustPanic("element 0 in the past", func() {
		s.Sequence(2, func(i int) Time { return Second - 1 + Time(i) }, func(int) {})
	})
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after the refused Sequence, want 0", s.Pending())
	}

	s = New(1)
	at := []Time{Second, 2 * Second, Second + 1}
	var ran []int
	s.Sequence(len(at), func(i int) Time { return at[i] }, func(i int) { ran = append(ran, i) })
	mustPanic("decreasing at", func() { s.Run(0) })
	if len(ran) != 1 || ran[0] != 0 || s.Now() != 2*Second {
		t.Errorf("ran %v, now %v at the panic; want [0] at %v (element 1 queues element 2 first)", ran, s.Now(), 2*Second)
	}
}

// A slot in the past panics at Reserve, as At does; queueing a slot that
// execution has passed panics at Queue, whether the slot's instant is over
// or the clock is still at it.
func TestSlotPanics(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no panic", what)
			} else if !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %q, want one containing %q", what, r, want)
			}
		}()
		f()
	}

	s := New(1)
	s.At(Second, func() {})
	early, same := s.Reserve(Second/2), s.Reserve(Second)
	s.Run(0)
	mustPanic("reserve in the past", "in the past", func() { s.Reserve(Second - 1) })
	mustPanic("queue after the slot's instant", "passed slot", func() { early.Queue(func() {}) })
	mustPanic("queue at the slot's instant", "passed slot", func() { same.Queue(func() {}) })
	mustPanic("queue the zero slot", "passed slot", func() { Slot{}.Queue(func() {}) })
	if s.Pending() != 0 || s.Executed != 1 {
		t.Errorf("Pending() = %d, Executed = %d after the refused calls, want 0 and 1", s.Pending(), s.Executed)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		for i := 0; i < 50; i++ {
			d := Time(s.Rand().Intn(1000)) * Microsecond
			s.After(d, func() { out = append(out, int64(s.Now())) })
		}
		s.Run(0)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.After(Time(j)*Microsecond, func() {})
		}
		s.Run(0)
	}
}

// BenchmarkTimerWheelChurn is ScheduleTimer/Stop churn, the pattern FANcY
// retransmission timers create, above a queue held at a given depth: an
// empty one, abilene-ctrl-chaos's (about 160 events) and link-trace-tcp's
// (about 16 k). Above depth 0 each arm and cancel also pops one event.
func BenchmarkTimerWheelChurn(b *testing.B) {
	for _, depth := range []int{0, 200, 16_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New(1)
			step := churnQueue(s, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
