package main

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// sampleEvery is the trace sampler's period in simulated time.
const sampleEvery = 10 * sim.Millisecond

// sampler is the traced pass's benchmark-owned timer: every sampleEvery it
// reads the event-heap depth and every watched transmit queue. It adds
// events to the stream, which is why it runs on the traced pass only and why
// pass.run subtracts its ticks from sim.events.
type sampler struct {
	ticks      uint64
	pendingMax int
	queueMax   int
}

// attach starts sampling s until horizon and returns a function that reports
// how many sampler events ran.
func (sm *sampler) attach(s *sim.Sim, ends []*netsim.LinkEnd, horizon sim.Time) func() uint64 {
	before := sm.ticks
	var tick func()
	tick = func() {
		sm.ticks++
		if n := s.Pending(); n > sm.pendingMax {
			sm.pendingMax = n // the sampler's own next tick is not queued yet
		}
		for _, e := range ends {
			if q := e.QueueDepthBytes(); q > sm.queueMax {
				sm.queueMax = q
			}
		}
		if s.Now()+sampleEvery <= horizon {
			s.After(sampleEvery, tick)
		}
	}
	s.After(sampleEvery, tick)
	return func() uint64 { return sm.ticks - before }
}
