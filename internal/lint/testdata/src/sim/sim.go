// Mini event engine mirroring internal/sim's event pool, so the poolsafe
// fixture can exercise the alloc/release ownership rules on the s.release(ev)
// form. (The pkt.release() form and the borrow rule live in ../netsim.)
package sim

// Time is simulated time.
type Time int64

type event struct {
	at Time
	fn func()
}

// Sim is the fixture stand-in for the simulator core.
type Sim struct {
	free  []*event
	queue []*event
	last  *event
}

// After runs fn after delay.
func (s *Sim) After(delay Time, fn func()) { fn() }

// alloc hands out an event; the caller owns it until release.
func (s *Sim) alloc(at Time, fn func()) *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		ev.at, ev.fn = at, fn
		return ev
	}
	return &event{at: at, fn: fn}
}

// release returns ownership to the pool.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

// UseAfterRelease reads an event already returned to the pool (true
// positive).
func (s *Sim) UseAfterRelease() Time {
	ev := s.alloc(1, nil)
	s.release(ev)
	return ev.at
}

// DoubleReleaseLoop releases inside a loop; the back edge carries the
// released fact into the next iteration (true positive: double release).
func (s *Sim) DoubleReleaseLoop(n int) {
	ev := s.alloc(1, nil)
	for i := 0; i < n; i++ {
		s.release(ev)
	}
}

// ReleaseAfterStore parks the event in a slice and a field and then returns
// it to the pool, leaving both pointing at recycled memory (true positive:
// release after escape; one finding, at the release).
func (s *Sim) ReleaseAfterStore() {
	ev := s.alloc(1, nil)
	s.queue = append(s.queue, ev)
	s.last = ev
	s.release(ev)
}

// ReleaseAfterCapture hands the event to a closure that outlives the
// statement, then returns it to the pool (true positive: release after
// escape).
func (s *Sim) ReleaseAfterCapture() {
	ev := s.alloc(1, nil)
	s.After(5, func() { ev.at++ })
	s.release(ev)
}

// CopyOutThenRelease is Sim.Run's idiom: copy the closure out, recycle the
// event, then run the copy (true negative).
func (s *Sim) CopyOutThenRelease() {
	ev := s.alloc(1, func() {})
	fn := ev.fn
	s.release(ev)
	fn()
}

// ReacquireKills allocs into the same variable after a release; the fresh
// definition ends the released state (true negative).
func (s *Sim) ReacquireKills() {
	ev := s.alloc(1, nil)
	s.release(ev)
	ev = s.alloc(2, nil)
	ev.at = 3
	s.release(ev)
}

// DeferredRelease schedules the release for function exit, after every use
// (true negative).
func (s *Sim) DeferredRelease() Time {
	ev := s.alloc(1, nil)
	defer s.release(ev)
	ev.at = 4
	return ev.at
}

// ImmediateClosure invokes the capturing literal on the spot, so nothing
// outlives the statement (true negative).
func (s *Sim) ImmediateClosure() {
	ev := s.alloc(1, nil)
	func() { ev.at++ }()
	s.release(ev)
}

// SuppressedUseAfterRelease demonstrates a justified suppression.
func (s *Sim) SuppressedUseAfterRelease() {
	ev := s.alloc(1, nil)
	s.release(ev)
	ev.at = 5 //lint:allow poolsafe fixture exercises the recycled-write path on purpose
}
