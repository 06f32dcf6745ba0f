package fancy

// Congestion guard (§4.3, footnote 2): "systematic failures can be
// distinguished from congestion even in partial deployments of FANcY by
// monitoring queue sizes on all devices, and discarding all measurements
// collected during periods where queue sizes were excessively long."
//
// FANcY's counter placement (after the upstream TM, before the downstream
// one) already excludes local congestion drops; the guard matters for
// remote sessions whose tagged packets cross other switches' queues. A
// QueueGuard samples those queues and records congested windows per
// direction; the detector then discards any counting session overlapping
// one.

import (
	"fmt"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// CongestionGuard decides whether measurements taken in [from, to] on a
// monitored port must be discarded.
type CongestionGuard interface {
	Congested(port int, from, to sim.Time) bool
}

// SetCongestionGuard installs the guard consulted before every counter
// comparison. Sessions overlapping a congested window raise no events and
// are counted in DiscardedSessions.
func (d *Detector) SetCongestionGuard(g CongestionGuard) { d.guard = g }

// DiscardedSessions reports sessions dropped by the congestion guard.
func (d *Detector) DiscardedSessions() uint64 { return d.discarded }

// QueueGuard samples the transmit-queue depth of every watched link
// direction in one event per interval: the paper's one periodic read of
// the queues on all devices.
type QueueGuard struct {
	s         *sim.Sim
	threshold int
	interval  sim.Time

	watched []*QueueWatch
}

// QueueWatch is one watched direction's record: the windows in which its
// queue was deeper than the guard's threshold. It implements
// CongestionGuard.
type QueueWatch struct {
	end         *netsim.LinkEnd
	windows     []guardWindow
	overSamples uint64
}

type guardWindow struct{ from, to sim.Time }

// NewQueueGuard starts sampling every interval; a queue deeper than
// thresholdBytes taints its direction's surrounding window (one interval
// of slack on each side, since queues can have peaked between samples).
// A non-positive interval or a negative threshold panics.
func NewQueueGuard(s *sim.Sim, thresholdBytes int, interval sim.Time) *QueueGuard {
	if interval <= 0 {
		panic(fmt.Sprintf("fancy: queue guard interval %v must be positive", interval))
	}
	if thresholdBytes < 0 {
		panic(fmt.Sprintf("fancy: queue guard threshold %d bytes is negative", thresholdBytes))
	}
	g := &QueueGuard{s: s, threshold: thresholdBytes, interval: interval}
	s.AfterActor(interval, (*guardSample)(g))
	return g
}

// Watch adds a link direction to the sampled set and returns its record.
func (g *QueueGuard) Watch(end *netsim.LinkEnd) *QueueWatch {
	w := &QueueWatch{end: end}
	g.watched = append(g.watched, w)
	return w
}

// guardSample is the QueueGuard as the sim.Actor of its sampling timer.
type guardSample QueueGuard

func (g *guardSample) Fire() { (*QueueGuard)(g).sample() }

func (g *QueueGuard) sample() {
	now := g.s.Now()
	w := guardWindow{from: now - g.interval, to: now + g.interval}
	for _, q := range g.watched {
		if q.end.QueueDepthBytes() <= g.threshold {
			continue
		}
		q.overSamples++
		if n := len(q.windows); n > 0 && q.windows[n-1].to >= w.from {
			q.windows[n-1].to = w.to // merge adjacent windows
		} else {
			q.windows = append(q.windows, w)
		}
	}
	g.s.AfterActor(g.interval, (*guardSample)(g))
}

// Congested implements CongestionGuard.
func (q *QueueWatch) Congested(_ int, from, to sim.Time) bool {
	for i := len(q.windows) - 1; i >= 0; i-- {
		w := q.windows[i]
		if w.to < from {
			return false // windows are time-ordered
		}
		if w.from <= to {
			return true
		}
	}
	return false
}
