package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refSched is the reference scheduler the engine is tested against: a slice
// kept sorted by (at, seq) with linear insert and remove. It is the whole
// contract of Sim in a few dozen lines — no heap, no pool, no handles that
// can go stale (a handle is the event's unique seq) — so any change to the
// real queue (timer coalescing, a bucket ring ahead of the heap) has to
// keep agreeing with it event for event.
//
// A Sequence is n inserts made at call time. Only Pending sees that Sim
// queues one element at a time: the reference marks each later element
// hidden until its predecessor runs, and Pending does not count it.
type refSched struct {
	now     Time
	seq     uint64
	ran     uint64
	stopped bool
	q       []refEvent

	// What the Sequence elements of a workload ran into, summed over its
	// runs, so the property test can require each case to have occurred.
	emptySeqs   int // n = 0
	stoppedSeqs int // a Run ended by Stop with a sequence part-run
	cutSeqs     int // a Run ended by its horizon with a sequence part-run
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	hidden bool   // a Sequence element whose predecessor has not run yet
	succ   uint64 // the seq of the next element of its Sequence, or 0
}

func (r *refSched) insert(at Time, fn func()) uint64 {
	i := len(r.q)
	for i > 0 && r.q[i-1].at > at { // equal timestamps: after every earlier insert
		i--
	}
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	return r.q[i].seq
}

// partRun reports whether a Sequence has elements still hidden.
func (r *refSched) partRun() bool {
	for i := range r.q {
		if r.q[i].hidden {
			return true
		}
	}
	return false
}

// find returns the queue position of the event with this seq, or -1.
func (r *refSched) find(seq uint64) int {
	for i := range r.q {
		if r.q[i].seq == seq {
			return i
		}
	}
	return -1
}

func (r *refSched) Run(horizon Time) Time {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		ev := r.q[0]
		if horizon > 0 && ev.at > horizon {
			if r.partRun() {
				r.cutSeqs++
			}
			r.now = horizon
			return r.now
		}
		r.q = append(r.q[:0], r.q[1:]...)
		r.now = ev.at
		r.ran++
		if ev.succ != 0 {
			r.q[r.find(ev.succ)].hidden = false
		}
		ev.fn()
	}
	if r.stopped && r.partRun() {
		r.stoppedSeqs++
	}
	if !r.stopped && horizon > 0 && r.now < horizon {
		r.now = horizon
	}
	return r.now
}

func (r *refSched) Now() Time { return r.now }
func (r *refSched) Stop()     { r.stopped = true }

func (r *refSched) Pending() int {
	n := 0
	for i := range r.q {
		if !r.q[i].hidden {
			n++
		}
	}
	return n
}

func (r *refSched) executed() uint64 { return r.ran }

func (r *refSched) sequence(at []Time, fn func(i int)) {
	if len(at) == 0 {
		r.emptySeqs++
	}
	var prev uint64
	for i := range at {
		seq := r.insert(at[i], func() { fn(i) })
		if i > 0 {
			r.q[r.find(seq)].hidden = true
			r.q[r.find(prev)].succ = seq
		}
		prev = seq
	}
}

func (r *refSched) schedule(kind int, delay Time, fn func()) handle {
	seq := r.insert(r.now+delay, fn)
	if kind < firstHandleKind {
		return nil
	}
	return refTimer{r, seq}
}

type refTimer struct {
	r   *refSched
	seq uint64
}

func (t refTimer) Active() bool { return t.r.find(t.seq) >= 0 }

func (t refTimer) Stop() bool {
	i := t.r.find(t.seq)
	if i < 0 {
		return false
	}
	t.r.q = append(t.r.q[:i], t.r.q[i+1:]...)
	return true
}

// engine is what the differential workload drives: the real Sim through
// every scheduling entry point, or the reference.
type engine interface {
	Now() Time
	Pending() int
	Stop()
	Run(horizon Time) Time
	executed() uint64
	// schedule picks the entry point by kind; kinds below firstHandleKind
	// are the handle-free After/At and return nil.
	schedule(kind int, delay Time, fn func()) handle
	// sequence runs fn(i) at at[i], for a non-decreasing at.
	sequence(at []Time, fn func(i int))
}

type handle interface {
	Stop() bool
	Active() bool
}

const (
	firstHandleKind = 2
	numKinds        = 5
)

type simEngine struct{ *Sim }

func (e simEngine) executed() uint64 { return e.Executed }

func (e simEngine) schedule(kind int, delay Time, fn func()) handle {
	switch kind {
	case 0:
		e.After(delay, fn)
	case 1:
		e.At(e.Now()+delay, fn)
	case 2:
		return e.Schedule(delay, fn)
	case 3:
		return e.ScheduleAt(e.Now()+delay, fn)
	default:
		tm := e.ScheduleTimer(delay, fn)
		return &tm
	}
	return nil
}

func (e simEngine) sequence(at []Time, fn func(i int)) {
	e.Sequence(len(at), func(i int) Time { return at[i] }, fn)
}

// transcript drives e with a pseudo-random operation stream and returns
// everything observable: each execution with the clock, Pending and
// Executed around it, every Timer.Stop and Active result, and every Run
// return value. The stream is a function of the seed and of the order in
// which the engine invokes callbacks, so two engines produce the same
// transcript only if they execute the same events in the same order.
//
// Delays are small multiples of one unit, so timestamps collide constantly
// (FIFO ties, children scheduled at the current instant) and Run horizons
// regularly land exactly on an event (the horizon is inclusive). Handles
// are kept forever and stopped at random — pending ones, fired ones, and
// ones whose pooled event has since been recycled for another schedule —
// from inside callbacks and between runs. With cancel unset no handle is
// ever stopped and the stream is pure ordering.
//
// One schedule in six is a Sequence of zero to five elements, its steps
// drawn from the same small delays, so its elements tie with each other,
// with events scheduled before and after it and with the children its own
// elements schedule; Stop and horizons regularly fall inside one.
func transcript(e engine, seed int64, cancel bool) string {
	const unit = 10 * Microsecond
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	var handles []handle
	budget, nextID := 400, 0

	var fire func(id int) func()
	spawn := func() {
		if budget == 0 {
			return
		}
		budget--
		if rng.Intn(6) == 0 {
			at := make([]Time, min(rng.Intn(6), budget+1))
			budget -= max(len(at)-1, 0)
			t := e.Now()
			for i := range at {
				t += Time(rng.Intn(3)) * unit
				at[i] = t
			}
			first := nextID
			nextID += len(at)
			fmt.Fprintf(&log, "  sequence #%d.. at %v\n", first, at)
			e.sequence(at, func(i int) { fire(first + i)() })
			return
		}
		kind, delay := rng.Intn(numKinds), Time(rng.Intn(6))*unit
		fmt.Fprintf(&log, "  schedule #%d kind %d +%d\n", nextID, kind, delay)
		if h := e.schedule(kind, delay, fire(nextID)); kind >= firstHandleKind {
			handles = append(handles, h)
		}
		nextID++
	}
	poke := func() {
		if !cancel || len(handles) == 0 {
			return
		}
		// Half the time aim at a recent handle, which is likely pending.
		i := rng.Intn(len(handles))
		if recent := len(handles) - 8; recent > 0 && rng.Intn(2) == 0 {
			i = recent + rng.Intn(8)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&log, "  active h%d = %v\n", i, handles[i].Active())
		} else {
			fmt.Fprintf(&log, "  stop h%d = %v pending %d\n", i, handles[i].Stop(), e.Pending())
		}
	}
	fire = func(id int) func() {
		return func() {
			fmt.Fprintf(&log, "run #%d at %d pending %d executed %d\n", id, e.Now(), e.Pending(), e.executed())
			for n := rng.Intn(4); n > 0; n-- {
				if rng.Intn(3) == 0 {
					poke()
				} else {
					spawn()
				}
			}
			if rng.Intn(40) == 0 {
				log.WriteString("  Stop\n")
				e.Stop()
			}
			fmt.Fprintf(&log, "  done pending %d\n", e.Pending())
		}
	}

	for i := 0; i < 64; i++ {
		spawn()
	}
	for segment := 0; e.Pending() > 0; segment++ {
		if segment > 10_000 {
			panic("differential workload does not terminate")
		}
		horizon := e.Now() + Time(rng.Intn(6))*unit
		end := e.Run(horizon)
		fmt.Fprintf(&log, "Run(%d) = %d now %d pending %d executed %d\n",
			horizon, end, e.Now(), e.Pending(), e.executed())
		// Between runs: schedule at the current instant or later, cancel,
		// and call Stop where it must have no effect on the next Run.
		switch rng.Intn(4) {
		case 0:
			spawn()
		case 1:
			poke()
		case 2:
			e.Stop()
		}
	}
	return log.String()
}

// checkAgainstReference runs the same operation streams on Sim and on the
// reference scheduler and requires identical transcripts.
// Every workload has to have run Sequences into Stop, into a horizon and
// with n = 0.
func checkAgainstReference(t *testing.T, cancel bool) {
	t.Helper()
	var seen refSched
	for seed := int64(1); seed <= 200; seed++ {
		got := transcript(simEngine{New(seed)}, seed, cancel)
		ref := &refSched{}
		want := transcript(ref, seed, cancel)
		seen.emptySeqs += ref.emptySeqs
		seen.stoppedSeqs += ref.stoppedSeqs
		seen.cutSeqs += ref.cutSeqs
		if got == want {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				lo := max(0, i-5)
				t.Fatalf("seed %d: Sim diverges from the reference scheduler at line %d\nSim:\n%s\nreference:\n%s",
					seed, i+1, strings.Join(g[lo:i+1], "\n"), strings.Join(w[lo:min(i+1, len(w))], "\n"))
			}
		}
		t.Fatalf("seed %d: Sim transcript is a strict prefix of the reference's", seed)
	}
	if seen.emptySeqs == 0 || seen.stoppedSeqs == 0 || seen.cutSeqs == 0 {
		t.Fatalf("the workload missed a Sequence case: %d empty, %d stopped part-run, %d cut by a horizon",
			seen.emptySeqs, seen.stoppedSeqs, seen.cutSeqs)
	}
}

// Property: for any stream of schedules through After, At, Schedule,
// ScheduleAt, ScheduleTimer and Sequence — equal timestamps, zero delays,
// children scheduled from callbacks, Stop mid-run, horizons on and between
// events — Sim executes exactly what the reference scheduler does, in (time,
// insertion) order, with the same clock, Pending, Executed and Run results.
func TestPropertyEventOrdering(t *testing.T) { checkAgainstReference(t, false) }

// Property: the same with timers cancelled at random — pending, already
// fired, and stale handles whose event was recycled; from inside callbacks
// (including siblings due at the current instant) and between runs. Every
// Stop and Active result matches the reference, a cancelled event never
// runs, and Pending drops at the moment of the Stop.
func TestPropertyCancellation(t *testing.T) { checkAgainstReference(t, true) }
