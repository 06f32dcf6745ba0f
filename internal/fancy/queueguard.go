package fancy

// Congestion guard (§4.3, footnote 2): "systematic failures can be
// distinguished from congestion even in partial deployments of FANcY by
// monitoring queue sizes on all devices, and discarding all measurements
// collected during periods where queue sizes were excessively long."
//
// FANcY's counter placement (after the upstream TM, before the downstream
// one) already excludes local congestion drops; the guard matters for
// remote sessions whose tagged packets cross other switches' queues. A
// QueueGuard samples those queues and records congested windows; the
// detector then discards any counting session overlapping one.

import (
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

// QueueGuard implements CongestionGuard by sampling transmit-queue depths
// of watched link directions and remembering windows where any exceeded
// the threshold.
type QueueGuard struct {
	s         *sim.Sim
	threshold int
	interval  sim.Time
	sampleFn  func() // bound once so resampling does not allocate

	watched []*netsim.LinkEnd
	windows []guardWindow

	Samples     uint64
	OverSamples uint64
}

type guardWindow struct{ from, to sim.Time }

// NewQueueGuard starts sampling every interval; queues deeper than
// thresholdBytes taint the surrounding window (one interval of slack on
// each side, since queues can have peaked between samples).
func NewQueueGuard(s *sim.Sim, thresholdBytes int, interval sim.Time) *QueueGuard {
	if interval <= 0 {
		interval = 5 * sim.Millisecond
	}
	g := &QueueGuard{s: s, threshold: thresholdBytes, interval: interval}
	g.sampleFn = g.sample
	s.After(interval, g.sampleFn)
	return g
}

// Watch adds a link direction to the sampled set.
func (g *QueueGuard) Watch(end *netsim.LinkEnd) { g.watched = append(g.watched, end) }

func (g *QueueGuard) sample() {
	g.Samples++
	over := false
	for _, end := range g.watched {
		if end.QueueDepthBytes() > g.threshold {
			over = true
			break
		}
	}
	if over {
		g.OverSamples++
		now := g.s.Now()
		w := guardWindow{from: now - g.interval, to: now + g.interval}
		if n := len(g.windows); n > 0 && g.windows[n-1].to >= w.from {
			g.windows[n-1].to = w.to // merge adjacent windows
		} else {
			g.windows = append(g.windows, w)
		}
	}
	g.s.After(g.interval, g.sampleFn)
}

// Congested implements CongestionGuard.
func (g *QueueGuard) Congested(_ int, from, to sim.Time) bool {
	for i := len(g.windows) - 1; i >= 0; i-- {
		w := g.windows[i]
		if w.to < from {
			return false // windows are time-ordered
		}
		if w.from <= to {
			return true
		}
	}
	return false
}
