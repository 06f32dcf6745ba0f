// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate every packet-level experiment in this
// repository runs on. It provides a virtual clock, an event queue ordered by
// (time, insertion sequence), cancellable timers, and a seeded random number
// generator so that every experiment is exactly reproducible from its seed.
//
// The design mirrors the scheduling core of ns-3, which the FANcY paper used
// for its software evaluation: events are closures executed at a virtual
// timestamp, and the simulation runs until the queue drains or a configured
// horizon is reached.
//
// Events are pooled: executed and cancelled events are recycled through a
// free list, and a Timer handle is a value, so steady-state scheduling
// allocates nothing. Sequence queues a long time-ordered run of callbacks
// one at a time, so the run neither deepens the queue nor allocates per
// element. Reserve holds an event's place in the order without queueing
// it, for a caller that learns only later whether anything has to run
// there.
//
// A Sim is single-threaded. Parallelism lives one level up, where it is
// deterministic for free: independent trials each own a Sim and run on
// separate goroutines (exp.FleetAbileneWorkers).
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to keep absolute
// timestamps and durations from being mixed up in scheduling code.
type Time int64

// Common conversion helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual timestamp into a time.Duration from t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the timestamp with time.Duration rules (e.g. "1.5s").
func (t Time) String() string { return time.Duration(t).String() }

// An event is a scheduled closure. Events with equal timestamps execute in
// insertion order, which keeps simulations deterministic. Events are pooled:
// after execution or cancellation they return to the owning Sim's free list,
// and gen is bumped so stale Timer handles can detect the recycling.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint64 // incremented on every release to the pool
	index int    // heap index, or indexFree
}

const indexFree = -1 // not in the heap: pooled or executing

// eventQueue is a 4-ary min-heap of events ordered by (at, seq), hand
// rolled instead of container/heap: the event loop spends most of its time
// here, and a direct implementation avoids the interface dispatch per
// comparison, halves the tree depth, and moves each displaced event once
// (hole-based sifting) instead of swapping pairwise.
type eventQueue []*event

// before is the heap order: time, ties broken by insertion sequence.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the hole at i toward the root until ev fits, then plants ev.
func (q eventQueue) siftUp(i int, ev *event) {
	for i > 0 {
		p := (i - 1) >> 2
		pe := q[p]
		if !before(ev, pe) {
			break
		}
		q[i] = pe
		pe.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// siftDown moves the hole at i toward the leaves until ev fits.
func (q eventQueue) siftDown(i int, ev *event) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min, me := c, q[c]
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if ke := q[k]; before(ke, me) {
				min, me = k, ke
			}
		}
		if !before(me, ev) {
			break
		}
		q[i] = me
		me.index = i
		i = min
	}
	q[i] = ev
	ev.index = i
}

func heapPush(qp *eventQueue, ev *event) {
	*qp = append(*qp, nil)
	(*qp).siftUp(len(*qp)-1, ev)
}

func heapPop(qp *eventQueue) *event {
	q := *qp
	top := q[0]
	top.index = indexFree
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*qp = q[:n]
	if n > 0 {
		q[:n].siftDown(0, last)
	}
	return top
}

// heapRemove removes the event at index i (Timer.Stop's O(log n) path).
func heapRemove(qp *eventQueue, i int) *event {
	q := *qp
	ev := q[i]
	ev.index = indexFree
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*qp = q[:n]
	if i < n {
		q = q[:n]
		if before(last, ev) {
			q.siftUp(i, last)
		} else {
			q.siftDown(i, last)
		}
	}
	return ev
}

// Timer is a handle to a scheduled event. Its zero value is an inert timer:
// Stop and Active are safe to call and report false.
type Timer struct {
	s   *Sim
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the event had still been
// pending (i.e. the cancellation prevented an execution). Cancellation
// removes the event from the queue immediately (O(log n)), so a stopped
// long-horizon timer holds no memory and does not inflate the queue.
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	s := t.s
	heapRemove(&s.queue, t.ev.index)
	s.release(t.ev)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index != indexFree
}

// Sim is a discrete-event simulator. The zero value is not usable;
// construct one with New. A Sim is single-threaded: everything scheduled on
// it runs on the goroutine that calls Run.
type Sim struct {
	now     Time
	seq     uint64
	queue   eventQueue
	seed    int64
	rng     *rand.Rand
	stopped bool
	free    []*event // event pool

	// passed bounds what execution has reached at now: keys (now, q) with
	// q < passed. Run keeps it one past the running event's sequence
	// number and raises it to seq on every return but Stop's.
	passed uint64

	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// New returns a simulator whose random generator is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's deterministic random number generator.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// DeriveSeed maps the simulation seed plus a stream label to an independent
// sub-seed. Components that need their own RNG (failure injectors, chaos
// injectors, workload generators) derive it from here so that two runs with
// the same simulation seed replay identical randomness regardless of how
// many other components consumed the shared Rand() stream in between.
func (s *Sim) DeriveSeed(stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return s.seed ^ int64(h.Sum64())
}

// DeriveRand returns a deterministic RNG for a named stream (see DeriveSeed).
func (s *Sim) DeriveRand(stream string) *rand.Rand {
	return rand.New(rand.NewSource(s.DeriveSeed(stream)))
}

// alloc takes an event from the pool (or allocates one) and resets it.
func (s *Sim) alloc(at Time, fn func()) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.fn = fn
	ev.index = indexFree
	return ev
}

// release returns an event to the pool. Bumping gen invalidates any Timer
// handle still pointing at it.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, ev)
}

// ScheduleAt runs fn at the absolute virtual time at, which must not be in
// the past, and returns a cancellable handle.
func (s *Sim) ScheduleAt(at Time, fn func()) Timer {
	ev := s.push(at, s.seq, fn)
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// ScheduleTimer runs fn after delay virtual nanoseconds and returns a
// cancellable handle. A negative delay is an error in the caller;
// ScheduleTimer panics to surface it immediately. The handle is a value, so
// a caller that keeps it in a struct field rearms a recurring timer without
// allocating (the zero Timer is inert, so the field needs no
// initialization).
func (s *Sim) ScheduleTimer(delay Time, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	ev := s.push(s.Now()+delay, s.seq, fn)
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// After runs fn after delay virtual nanoseconds. It is ScheduleTimer
// without the cancellation handle: with a warm event pool this path does
// not allocate at all.
func (s *Sim) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.push(s.Now()+delay, s.seq, fn)
}

// At runs fn at the absolute virtual time at (the handle-free ScheduleAt).
func (s *Sim) At(at Time, fn func()) {
	s.push(at, s.seq, fn)
}

// push queues fn under the key (at, seq); it is the one insertion path. The
// scheduling entry points pass s.seq, the next fresh number, which push then
// advances; Sequence and Slot.Queue pass a number reserved earlier, which
// is below s.seq already. Taking the bump inside push keeps each entry
// point at a single call, and so ScheduleAt within the inlining budget: a
// caller that drops its handle keeps the handle on its own stack.
func (s *Sim) push(at Time, seq uint64, fn func()) *event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", at, s.now))
	}
	ev := s.alloc(at, fn)
	ev.seq = seq
	if seq >= s.seq {
		s.seq = seq + 1
	}
	heapPush(&s.queue, ev)
	return ev
}

// Sequence runs fn(0), …, fn(n-1) at the times at(0), …, at(n-1), exactly
// as n At calls made now would, but keeps only one of them queued. It
// reserves n sequence numbers at once and queues element 0; when element i
// runs it first queues element i+1 under its reserved number, then calls
// fn(i). Every element thus keeps the (time, sequence) key the At calls
// would have given it, so it runs in the same place relative to every other
// event; and element i+1 is queued before it can be due, since its key is
// larger than that of element i, which is running.
//
// at must be non-decreasing in i: an element earlier than its predecessor
// panics when that predecessor runs, and element 0 in the past panics now,
// as At does. The elements cannot be cancelled. A Sequence costs O(1)
// allocations, whatever n.
func (s *Sim) Sequence(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	q := &sequence{s: s, base: s.seq, n: n, at: at, fn: fn}
	q.runFn = q.run
	s.seq += uint64(n)
	s.push(at(0), q.base, q.runFn)
}

// sequence is a Sequence in progress. Its elements run one after another,
// so one bound method value serves them all.
type sequence struct {
	s     *Sim
	base  uint64 // the sequence number of element 0
	n     int
	next  int // the element runFn runs next
	at    func(i int) Time
	fn    func(i int)
	runFn func()
}

func (q *sequence) run() {
	i := q.next
	q.next++
	if q.next < q.n {
		q.s.push(q.at(q.next), q.base+uint64(q.next), q.runFn)
	}
	q.fn(i)
}

// Slot is a place in the event order taken by Reserve: the (time,
// sequence) key an At call made at reservation time would have given its
// event. The zero Slot has passed.
type Slot struct {
	s   *Sim
	at  Time
	seq uint64
}

// Reserve takes the key that At(at, ·) called now would get and queues
// nothing. It consumes that sequence number, so every later key is the
// one it would be had the At call been made. at in the past panics, as At
// does.
func (s *Sim) Reserve(at Time) Slot {
	if at < s.now {
		panic(fmt.Sprintf("sim: reserve in the past: at=%v now=%v", at, s.now))
	}
	sl := Slot{s: s, at: at, seq: s.seq}
	s.seq++
	return sl
}

// Queue runs fn at the slot: exactly where the At call made at
// reservation time would have run it. A slot takes one fn; queueing a
// slot that has passed panics.
func (sl Slot) Queue(fn func()) {
	if sl.Passed() {
		panic(fmt.Sprintf("sim: queue on a passed slot: at=%v", sl.at))
	}
	sl.s.push(sl.at, sl.seq, fn)
}

// Passed reports whether execution is at or beyond the slot: an event
// queued there would have run, or would be running now. Between runs that
// is everything up to the clock, unless the last Run ended by Stop.
func (sl Slot) Passed() bool {
	s := sl.s
	if s == nil {
		return true
	}
	return sl.at < s.now || sl.at == s.now && sl.seq < s.passed
}

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue is empty, until the
// horizon is crossed, or until Stop is called. A zero horizon means no limit.
// It returns the virtual time at which the run ended: the horizon when the
// horizon bounded the run, otherwise the time of the last executed event.
// In particular, after Stop() the clock is NOT advanced to the horizon —
// the stop time is the end time.
func (s *Sim) Run(horizon Time) Time {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		ev := s.queue[0]
		if horizon > 0 && ev.at > horizon {
			s.now = horizon
			s.passed = s.seq
			return s.now
		}
		heapPop(&s.queue)
		s.now = ev.at
		s.passed = ev.seq + 1
		s.Executed++
		fn := ev.fn
		s.release(ev)
		fn()
	}
	if s.stopped {
		return s.now
	}
	s.passed = s.seq
	if horizon > 0 && s.now < horizon {
		s.now = horizon
	}
	return s.now
}

// Pending reports the number of events still queued. Cancelled events leave
// the queue at once, so this is the heap's length. A Sequence counts once
// while it has elements left to run.
func (s *Sim) Pending() int { return len(s.queue) }
