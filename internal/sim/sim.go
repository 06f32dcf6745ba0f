// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate every packet-level experiment in this
// repository runs on. It provides a virtual clock, an event queue ordered by
// (time, insertion sequence), cancellable timers, and a seeded random number
// generator so that every experiment is exactly reproducible from its seed.
//
// The design mirrors the scheduling core of ns-3, which the FANcY paper used
// for its software evaluation: an event runs a target at a virtual
// timestamp, and the simulation runs until the queue drains or a configured
// horizon is reached. The target is an Actor, a value with a Fire method;
// After, At, ScheduleTimer, ScheduleAt and Slot.Queue take a closure and
// wrap it as one, and AfterActor, AtActor, ScheduleTimerActor and
// Slot.QueueActor take the Actor itself. A type that re-arms a timer
// fires through a named conversion of itself,
//
//	type rtoFire Sender
//	func (t *rtoFire) Fire() { (*Sender)(t).onTimeout() }
//
// armed as ScheduleTimerActor(rto, (*rtoFire)(snd)): a pointer converted
// to an interface allocates nothing, where a method value bound to snd is
// one heap object per receiver.
//
// The queue is a radix heap over event times: since nothing is ever
// scheduled behind the clock, scheduling and cancelling are O(1) and
// popping O(1) amortized, with no comparisons on the common path, and the
// events due at one instant run in sequence order.
//
// Events are pooled: executed and cancelled events are recycled through a
// free list, which grows by chunks of events (see grow), and a Timer handle
// is a value, so steady-state scheduling allocates nothing. Sequence queues
// a long time-ordered run of callbacks one at a time, so the run neither
// deepens the queue nor allocates per element. Reserve holds an event's place in the order without queueing
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
	"math/bits"
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

// Actor is an event target: Fire runs when the event is due.
type Actor interface{ Fire() }

// funcActor is a closure as an event target. A func value is one pointer,
// so converting it to an Actor allocates nothing.
type funcActor func()

func (f funcActor) Fire() { f() }

// An event is a scheduled Actor. Events with equal timestamps execute in
// insertion order, which keeps simulations deterministic. Events are pooled:
// after execution or cancellation they return to the owning Sim's free list,
// with act cleared so the pool holds on to no target. A queued event is a
// link in its bucket's circular list (next, prev); a pooled one links the
// free list through next, and prev is nil whenever the event is not queued.
type event struct {
	at   Time
	seq  uint64
	act  Actor
	next *event
	prev *event
}

// The queue is a radix heap over event times (Ahuja, Mehlhorn, Orlin and
// Tarjan, 1990), which fits because nothing is ever scheduled behind the
// clock. Bucket b holds the events whose time differs from last, the time
// of the most recent refill, first in bit b-1: bucket 0 holds exactly the
// events at last, in sequence order, and every other bucket holds later
// ones in no particular order. last never passes the clock, so a new event
// is never filed below it. Times are not negative, so 64 buckets suffice.
//
// Pop takes the head of bucket 0. When bucket 0 is empty, refill moves the
// earliest events there: it raises last to the minimum of the lowest
// non-empty bucket b and re-files that bucket's events. They all land in
// buckets below b, which are empty, while the events in buckets above b
// stay where they are, since the new last differs from the old one only in
// bits below b. So an event's bucket is always the one its time names, and
// an event is re-filed at most 63 times in its life.
//
// Each bucket is a circular list through a sentinel event in the Sim,
// whose seq is 0: no event's seq is below it, so bucket 0's ordered insert
// stops there without a test of its own.

// file links ev into its bucket: at the tail, so each bucket keeps the
// order its events arrived in, or in bucket 0 at its place in sequence
// order, scanning from the tail because a reserved sequence number
// (Sequence, Slot.Queue) can be lower than one already queued there.
func (s *Sim) file(ev *event) {
	b := bits.Len64(uint64(ev.at ^ s.last))
	p := s.buckets[b].prev
	if b == 0 {
		for p.seq > ev.seq {
			p = p.prev
		}
	}
	n := p.next
	ev.prev, ev.next = p, n
	p.next = ev
	n.prev = ev
	s.mask |= 1 << b
}

// unlink takes a queued event out of its bucket.
func (s *Sim) unlink(ev *event) {
	p, n := ev.prev, ev.next
	p.next = n
	n.prev = p
	if p == n { // only the sentinel is left
		s.mask &^= 1 << bits.Len64(uint64(ev.at^s.last))
	}
	ev.prev = nil
	s.pending--
}

// earliest returns the lowest non-empty bucket and the minimum time in it,
// which is the time of the next event when bucket 0 is empty.
func (s *Sim) earliest() (int, Time) {
	b := bits.TrailingZeros64(s.mask)
	h := &s.buckets[b]
	ev := h.next
	min := ev.at
	for ev = ev.next; ev != h; ev = ev.next {
		if ev.at < min {
			min = ev.at
		}
	}
	return b, min
}

// refill re-files bucket b, whose minimum time is min, with last raised to
// min; bucket 0 must be empty. The minimum's events go to bucket 0.
func (s *Sim) refill(b int, min Time) {
	h := &s.buckets[b]
	ev := h.next
	h.next, h.prev = h, h
	s.mask &^= 1 << b
	s.last = min
	for ev != h {
		next := ev.next
		s.file(ev)
		ev = next
	}
}

// Timer is a handle to a scheduled event. Its zero value is an inert timer:
// Stop and Active are safe to call and report false. It names its event by
// pointer and sequence number: no two events of a Sim are ever queued under
// the same number, so an event recycled for another schedule no longer
// matches a stale handle.
type Timer struct {
	s   *Sim
	ev  *event
	seq uint64
}

// Stop cancels the timer. It reports whether the event had still been
// pending (i.e. the cancellation prevented an execution). Cancellation
// unlinks the event from the queue immediately (O(1)), so a stopped
// long-horizon timer holds no memory and does not inflate the queue.
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	s := t.s
	s.unlink(t.ev)
	s.release(t.ev)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.seq == t.seq && t.ev.prev != nil
}

// Sim is a discrete-event simulator. The zero value is not usable;
// construct one with New. A Sim is single-threaded: everything scheduled on
// it runs on the goroutine that calls Run.
type Sim struct {
	now     Time
	seq     uint64
	seed    int64
	rng     *rand.Rand
	stopped bool
	free    *event // event pool, linked through next
	chunk   int    // events in the pool's last chunk (see grow)

	// The event queue (see file): the bucket sentinels, the non-empty
	// buckets as a bit mask, the time of the most recent refill and the
	// number of events queued.
	buckets [64]event
	mask    uint64
	last    Time
	pending int

	// passed bounds what execution has reached at now: keys (now, q) with
	// q < passed. Run keeps it one past the running event's sequence
	// number and raises it to seq on every return but Stop's.
	passed uint64

	// Executed counts events that have run, for diagnostics and tests.
	Executed uint64
}

// New returns a simulator whose random generator is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{seed: seed, rng: rand.New(rand.NewSource(seed))}
	for b := range s.buckets {
		h := &s.buckets[b]
		h.next, h.prev = h, h
	}
	return s
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

// alloc takes an event from the pool, growing it if it is empty, and
// resets it.
func (s *Sim) alloc(at Time, act Actor) *event {
	ev := s.free
	if ev == nil {
		ev = s.grow()
	}
	s.free = ev.next
	ev.at = at
	ev.act = act
	return ev
}

// The pool grows by chunks: one allocation of minChunk events first, each
// later one twice the last, up to maxChunk. A Sim that queues N events at
// once thus allocates O(log N) objects up to maxChunk events and one per
// maxChunk after that, rather than one per event. Events never move: a
// chunk is an array that stays where it is for the life of the Sim, so a
// Timer's pointer stays valid and only its sequence number can go stale.
// 16 events of 48 bytes are 768 bytes and 1024 are 48 KiB, and every
// chunk size in between is an exact malloc size class.
const (
	minChunk = 16
	maxChunk = 1024
)

// grow links a new chunk into the empty free list and returns its head.
func (s *Sim) grow() *event {
	s.chunk = min(max(2*s.chunk, minChunk), maxChunk)
	c := make([]event, s.chunk)
	for i := range c[:len(c)-1] {
		c[i].next = &c[i+1]
	}
	s.free = &c[0]
	return s.free
}

// release returns an unlinked event to the pool.
func (s *Sim) release(ev *event) {
	ev.act = nil
	ev.next = s.free
	s.free = ev
}

// ScheduleAt runs fn at the absolute virtual time at, which must not be in
// the past, and returns a cancellable handle.
func (s *Sim) ScheduleAt(at Time, fn func()) Timer {
	ev := s.push(at, s.seq, funcActor(fn))
	return Timer{s: s, ev: ev, seq: ev.seq}
}

// ScheduleTimer runs fn after delay virtual nanoseconds and returns a
// cancellable handle. A negative delay is an error in the caller;
// ScheduleTimer panics to surface it immediately. The handle is a value, so
// a caller that keeps it in a struct field rearms a recurring timer without
// allocating (the zero Timer is inert, so the field needs no
// initialization).
func (s *Sim) ScheduleTimer(delay Time, fn func()) Timer {
	return s.ScheduleTimerActor(delay, funcActor(fn))
}

// ScheduleTimerActor fires a after delay virtual nanoseconds and returns a
// cancellable handle: ScheduleTimer with an Actor for the closure.
func (s *Sim) ScheduleTimerActor(delay Time, a Actor) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	ev := s.push(s.Now()+delay, s.seq, a)
	return Timer{s: s, ev: ev, seq: ev.seq}
}

// After runs fn after delay virtual nanoseconds. It is ScheduleTimer
// without the cancellation handle: with a warm event pool this path does
// not allocate at all.
func (s *Sim) After(delay Time, fn func()) {
	s.AfterActor(delay, funcActor(fn))
}

// AfterActor fires a after delay virtual nanoseconds: After with an Actor
// for the closure.
func (s *Sim) AfterActor(delay Time, a Actor) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.push(s.Now()+delay, s.seq, a)
}

// At runs fn at the absolute virtual time at (the handle-free ScheduleAt).
func (s *Sim) At(at Time, fn func()) {
	s.push(at, s.seq, funcActor(fn))
}

// AtActor fires a at the absolute virtual time at: At with an Actor for
// the closure.
func (s *Sim) AtActor(at Time, a Actor) {
	s.push(at, s.seq, a)
}

// push queues a under the key (at, seq); it is the one insertion path. The
// scheduling entry points pass s.seq, the next fresh number, which push then
// advances; Sequence and Slot.Queue pass a number reserved earlier, which
// is below s.seq already. Taking the bump inside push keeps each entry
// point at a single call, and so ScheduleAt within the inlining budget: a
// caller that drops its handle keeps the handle on its own stack.
func (s *Sim) push(at Time, seq uint64, a Actor) *event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", at, s.now))
	}
	ev := s.alloc(at, a)
	ev.seq = seq
	if seq >= s.seq {
		s.seq = seq + 1
	}
	s.file(ev)
	s.pending++
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
// as At does. The elements cannot be cancelled. A Sequence allocates one
// object, whatever n.
func (s *Sim) Sequence(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	q := &sequence{s: s, base: s.seq, n: n, at: at, fn: fn}
	s.seq += uint64(n)
	s.push(at(0), q.base, q)
}

// sequence is a Sequence in progress, and the Actor of its queued element.
type sequence struct {
	s    *Sim
	base uint64 // the sequence number of element 0
	n    int
	next int // the element Fire runs next
	at   func(i int) Time
	fn   func(i int)
}

// Fire runs the next element, queueing the one after it first.
func (q *sequence) Fire() {
	i := q.next
	q.next++
	if q.next < q.n {
		q.s.push(q.at(q.next), q.base+uint64(q.next), q)
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
func (sl Slot) Queue(fn func()) { sl.QueueActor(funcActor(fn)) }

// QueueActor fires a at the slot: Queue with an Actor for the closure.
func (sl Slot) QueueActor(a Actor) {
	if sl.Passed() {
		panic(fmt.Sprintf("sim: queue on a passed slot: at=%v", sl.at))
	}
	sl.s.push(sl.at, sl.seq, a)
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
// the stop time is the end time. A horizon behind the clock panics, as
// scheduling in the past does.
func (s *Sim) Run(horizon Time) Time {
	if horizon > 0 && horizon < s.now {
		panic(fmt.Sprintf("sim: run to a horizon in the past: horizon=%v now=%v", horizon, s.now))
	}
	s.stopped = false
	for s.mask != 0 && !s.stopped {
		if s.mask&1 == 0 {
			// Read the next time before refilling: last must not pass
			// the horizon, where the clock stops.
			b, min := s.earliest()
			if horizon > 0 && min > horizon {
				s.now = horizon
				s.passed = s.seq
				return s.now
			}
			s.refill(b, min)
		}
		ev := s.buckets[0].next
		s.unlink(ev)
		s.now = ev.at
		s.passed = ev.seq + 1
		s.Executed++
		a := ev.act
		s.release(ev)
		a.Fire()
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
// the queue at once, so this is a count kept on insert and unlink. A
// Sequence counts once while it has elements left to run.
func (s *Sim) Pending() int { return s.pending }
