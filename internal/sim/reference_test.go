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
// real queue (timer coalescing, another queue structure) has to keep
// agreeing with it event for event.
//
// A Sequence is n inserts made at call time. Only Pending sees that Sim
// queues one element at a time: the reference marks each later element
// hidden until its predecessor runs, and Pending does not count it.
//
// A Reserve is an insert too: a marker that runs nothing unless a Queue
// fills it. Execution passes an empty marker without moving the clock,
// once the clock or an event after it gets there; a slot has passed when
// its marker has left the queue.
type refSched struct {
	now     Time
	seq     uint64
	ran     uint64
	stopped bool
	q       []refEvent

	// seen counts the cases a workload ran into, summed over its runs, so
	// the property test can require each to have occurred.
	seen map[string]int
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func() // nil: a reserved slot nobody has queued
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

// queued reports whether the queue holds an event that runs something.
func (r *refSched) queued() bool {
	for i := range r.q {
		if r.q[i].fn != nil {
			return true
		}
	}
	return false
}

func (r *refSched) Run(horizon Time) Time {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		ev := r.q[0]
		if horizon > 0 && ev.at > horizon {
			if r.partRun() {
				r.seen["sequence cut by a horizon"]++
			}
			r.now = horizon
			return r.now
		}
		if ev.fn == nil && ev.at > r.now && horizon == 0 && !r.queued() {
			break // nothing left to carry the clock to the slot
		}
		r.q = append(r.q[:0], r.q[1:]...)
		if ev.fn == nil {
			r.seen["slot never queued"]++
			continue
		}
		r.now = ev.at
		r.ran++
		if ev.succ != 0 {
			r.q[r.find(ev.succ)].hidden = false
		}
		ev.fn()
	}
	if r.stopped && r.partRun() {
		r.seen["sequence stopped part-run"]++
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
		if !r.q[i].hidden && r.q[i].fn != nil {
			n++
		}
	}
	return n
}

func (r *refSched) executed() uint64 { return r.ran }

func (r *refSched) sequence(at []Time, fn func(i int)) {
	if len(at) == 0 {
		r.seen["empty sequence"]++
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

func (r *refSched) reserve(delay Time) slot {
	return refSlot{r, r.insert(r.now+delay, nil)}
}

type refSlot struct {
	r   *refSched
	seq uint64
}

func (sl refSlot) Passed() bool { return sl.r.find(sl.seq) < 0 }

func (sl refSlot) Queue(fn func(), _ bool) {
	i := sl.r.find(sl.seq)
	if i < 0 {
		panic("queue on a passed slot")
	}
	sl.r.q[i].fn = fn
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
	// are the handle-free After/At and their Actor forms, and return nil.
	schedule(kind int, delay Time, fn func()) handle
	// sequence runs fn(i) at at[i], for a non-decreasing at.
	sequence(at []Time, fn func(i int))
	reserve(delay Time) slot
}

type handle interface {
	Stop() bool
	Active() bool
}

// Queue's actor picks Slot.QueueActor over Slot.Queue on Sim.
type slot interface {
	Queue(fn func(), actor bool)
	Passed() bool
}

// The scheduling entry points, handle-free ones first: the closure forms
// and their Actor twins.
const (
	kindAfter = iota
	kindAt
	kindAfterActor
	kindAtActor
	kindScheduleAt
	kindScheduleTimer
	kindScheduleTimerActor
	numKinds

	firstHandleKind = kindScheduleAt
)

// fireFn is an Actor that is not a closure: Sim's Actor entry points
// dispatch through it, its closure entry points through funcActor.
type fireFn struct{ fn func() }

func (f *fireFn) Fire() { f.fn() }

type simEngine struct{ *Sim }

func (e simEngine) executed() uint64 { return e.Executed }

func (e simEngine) schedule(kind int, delay Time, fn func()) handle {
	switch kind {
	case kindAfter:
		e.After(delay, fn)
	case kindAt:
		e.At(e.Now()+delay, fn)
	case kindAfterActor:
		e.AfterActor(delay, &fireFn{fn})
	case kindAtActor:
		e.AtActor(e.Now()+delay, &fireFn{fn})
	case kindScheduleAt:
		tm := e.ScheduleAt(e.Now()+delay, fn)
		return &tm
	case kindScheduleTimer:
		tm := e.ScheduleTimer(delay, fn)
		return &tm
	default:
		tm := e.ScheduleTimerActor(delay, &fireFn{fn})
		return &tm
	}
	return nil
}

func (e simEngine) sequence(at []Time, fn func(i int)) {
	e.Sequence(len(at), func(i int) Time { return at[i] }, fn)
}

func (e simEngine) reserve(delay Time) slot { return simSlot{e.Reserve(e.Now() + delay)} }

type simSlot struct{ Slot }

func (sl simSlot) Queue(fn func(), actor bool) {
	if actor {
		sl.QueueActor(&fireFn{fn})
	} else {
		sl.Slot.Queue(fn)
	}
}

// transcript drives e with a pseudo-random operation stream and returns
// everything observable: each execution with the clock, Pending and
// Executed around it, every Timer.Stop, Active and Slot.Passed result, and
// every Run return value. The stream is a function of the seed and of the
// order in which the engine invokes callbacks, so two engines produce the
// same transcript only if they execute the same events in the same order.
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
//
// One in five of the rest reserves a slot instead, tying with events on
// both sides of it. Slots are kept forever too: their Passed is read, and
// the ones not passed are queued, before the first Run, from callbacks
// (half the time picking one at the current instant) and between runs.
// Some are never queued. seen counts the cases the stream ran into.
//
// With wide set, one delay and one horizon in three are instead drawn
// log-uniform from 1 ns to 2^40 ns (about 18 minutes), so timestamps
// differ from each other in every bit up to bit 39, not only in the low
// bits that a run of 10 µs units reaches in a few milliseconds.
func transcript(e engine, seed int64, cancel, wide bool, seen map[string]int) string {
	const unit = 10 * Microsecond
	rng := rand.New(rand.NewSource(seed))
	widen := func(d Time) Time {
		if !wide || rng.Intn(3) != 0 {
			return d
		}
		d = Time(1) << rng.Intn(40)
		return d + Time(rng.Int63n(int64(d)))
	}
	var log strings.Builder
	var handles []handle
	type slotAt struct {
		slot
		at     Time
		queued bool
	}
	var slots []*slotAt
	budget, nextID := 400, 0
	phase := "before the first Run"

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
				t += widen(Time(rng.Intn(3)) * unit)
				at[i] = t
			}
			first := nextID
			nextID += len(at)
			fmt.Fprintf(&log, "  sequence #%d.. at %v\n", first, at)
			e.sequence(at, func(i int) { fire(first + i)() })
			return
		}
		kind, delay := rng.Intn(numKinds), widen(Time(rng.Intn(6))*unit)
		if rng.Intn(5) == 0 {
			fmt.Fprintf(&log, "  reserve s%d +%d\n", len(slots), delay)
			slots = append(slots, &slotAt{slot: e.reserve(delay), at: e.Now() + delay})
			return
		}
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
	touch := func() {
		if len(slots) == 0 {
			return
		}
		i := rng.Intn(len(slots))
		if rng.Intn(2) == 0 {
			for j := len(slots) - 1; j >= 0; j-- {
				if slots[j].at == e.Now() {
					i = j
					break
				}
			}
		}
		sl := slots[i]
		passed := sl.Passed()
		where := "after"
		if sl.at > e.Now() {
			where = "before"
		} else if sl.at == e.Now() {
			where = "at"
		}
		seen[fmt.Sprintf("passed %v %s, %s", passed, where, phase)]++
		fmt.Fprintf(&log, "  passed s%d = %v\n", i, passed)
		if !passed && !sl.queued && rng.Intn(2) == 0 {
			if where == "at" {
				seen["queued at the slot's own instant"]++
			}
			actor := rng.Intn(2) == 0
			fmt.Fprintf(&log, "  queue s%d #%d actor %v\n", i, nextID, actor)
			sl.Queue(fire(nextID), actor)
			sl.queued = true
			nextID++
		}
	}
	fire = func(id int) func() {
		return func() {
			phase = "in a callback"
			fmt.Fprintf(&log, "run #%d at %d pending %d executed %d\n", id, e.Now(), e.Pending(), e.executed())
			for n := rng.Intn(4); n > 0; n-- {
				switch rng.Intn(4) {
				case 0:
					poke()
				case 1:
					touch()
				default:
					spawn()
				}
			}
			if rng.Intn(40) == 0 {
				log.WriteString("  Stop\n")
				e.Stop()
				phase = "after Stop"
			}
			fmt.Fprintf(&log, "  done pending %d\n", e.Pending())
		}
	}

	for i := 0; i < 64; i++ {
		spawn()
		if rng.Intn(4) == 0 {
			touch()
		}
	}
	for segment := 0; e.Pending() > 0; segment++ {
		if segment > 10_000 {
			panic("differential workload does not terminate")
		}
		horizon := e.Now() + widen(Time(rng.Intn(6))*unit)
		end := e.Run(horizon)
		fmt.Fprintf(&log, "Run(%d) = %d now %d pending %d executed %d\n",
			horizon, end, e.Now(), e.Pending(), e.executed())
		if phase != "after Stop" {
			phase = "after a drained Run"
			if e.Pending() > 0 {
				phase = "after a horizon return"
			}
		}
		// Between runs: schedule at the current instant or later, cancel,
		// read and queue slots, and call Stop where it must have no effect
		// on the next Run.
		touch()
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

// againstReference runs one operation stream on Sim and on the reference
// scheduler and reports where Sim's transcript first departs from the
// reference's, or "" when the two agree. seen collects the cases the
// stream ran into.
func againstReference(seed int64, cancel, wide bool, seen map[string]int) string {
	got := transcript(simEngine{New(seed)}, seed, cancel, wide, map[string]int{})
	want := transcript(&refSched{seen: seen}, seed, cancel, wide, seen)
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			lo := max(0, i-5)
			return fmt.Sprintf("Sim diverges from the reference scheduler at line %d\nSim:\n%s\nreference:\n%s",
				i+1, strings.Join(g[lo:i+1], "\n"), strings.Join(w[lo:min(i+1, len(w))], "\n"))
		}
	}
	return "Sim transcript is a strict prefix of the reference's"
}

// checkAgainstReference runs the same operation streams on Sim and on the
// reference scheduler and requires identical transcripts.
// Every workload has to have run Sequences into Stop, into a horizon and
// with n = 0, and read slots before, at and after the clock in every phase.
func checkAgainstReference(t *testing.T, cancel, wide bool) {
	t.Helper()
	seen := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		if d := againstReference(seed, cancel, wide, seen); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	cases := []string{
		"empty sequence", "sequence stopped part-run", "sequence cut by a horizon",
		"slot never queued", "queued at the slot's own instant",
		"passed false at, before the first Run", "passed false before, before the first Run",
	}
	for _, phase := range []string{"in a callback", "after a horizon return", "after Stop"} {
		cases = append(cases, "passed true after, "+phase, "passed false before, "+phase)
	}
	cases = append(cases, "passed true at, in a callback", "passed false at, in a callback",
		"passed true at, after a horizon return", "passed true at, after Stop", "passed false at, after Stop")
	for _, c := range cases {
		if seen[c] == 0 {
			t.Errorf("the workload never ran into %q; seen %v", c, seen)
		}
	}
}

// Property: for any stream of schedules through After, At, ScheduleAt,
// ScheduleTimer, their Actor forms, Sequence and Reserve (its slots
// queued with a closure or an Actor) — equal timestamps, zero
// delays, children scheduled and slots queued from callbacks, Stop mid-run,
// horizons on and between events — Sim executes exactly what the reference
// scheduler does, in (time, insertion) order, with the same clock,
// Pending, Executed, Slot.Passed and Run results.
func TestPropertyEventOrdering(t *testing.T) { checkAgainstReference(t, false, false) }

// Property: the same with timers cancelled at random — pending, already
// fired, and stale handles whose event was recycled; from inside callbacks
// (including siblings due at the current instant) and between runs. Every
// Stop and Active result matches the reference, a cancelled event never
// runs, and Pending drops at the moment of the Stop.
func TestPropertyCancellation(t *testing.T) { checkAgainstReference(t, true, false) }

// Property: the same over wide timestamps. The two tests above draw every
// delay from a few 10 µs units, so their timestamps stay within a few
// milliseconds and never reach the queue's upper buckets: a bucket index
// computed from the low 32 bits of the time alone passes both of them and
// fails here.
func TestPropertyWideTimes(t *testing.T) { checkAgainstReference(t, true, true) }

// FuzzEngineAgainstReference runs the differential transcript on Sim and
// on the reference scheduler for any seed, with or without cancellation
// and wide timestamps.
func FuzzEngineAgainstReference(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(2), true, false)
	f.Add(int64(3), true, true)
	f.Fuzz(func(t *testing.T, seed int64, cancel, wide bool) {
		if d := againstReference(seed, cancel, wide, map[string]int{}); d != "" {
			t.Fatalf("seed %d, cancel %v, wide %v: %s", seed, cancel, wide, d)
		}
	})
}
