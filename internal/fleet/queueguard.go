package fleet

// Congestion guard (§4.3, footnote 2): "systematic failures can be
// distinguished from congestion even in partial deployments of FANcY by
// monitoring queue sizes on all devices, and discarding all measurements
// collected during periods where queue sizes were excessively long."
//
// FANcY's counter placement (after the upstream TM, before the downstream
// one) already excludes local congestion drops; the guard matters for
// evidence whose tagged packets crossed queues that were excessively long.
// A queueGuard samples every directed link's transmit queue and records
// congested windows per direction; the correlator discards an incident's
// alarms when one overlaps its evidence window (congestedDuring).

import (
	"fmt"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// queueGuard samples the transmit-queue depth of every watched link
// direction in one event per interval: the paper's one periodic read of
// the queues on all devices.
type queueGuard struct {
	s         *sim.Sim
	threshold int
	interval  sim.Time

	watched []*queueWatch
}

// queueWatch is one watched direction's record: the windows in which its
// queue was deeper than the guard's threshold.
type queueWatch struct {
	end     *netsim.LinkEnd
	windows []guardWindow
}

type guardWindow struct{ from, to sim.Time }

// newQueueGuard starts sampling every interval; a queue deeper than
// thresholdBytes taints its direction's surrounding window (one interval
// of slack on each side, since queues can have peaked between samples).
// A non-positive interval or a negative threshold panics.
func newQueueGuard(s *sim.Sim, thresholdBytes int, interval sim.Time) *queueGuard {
	if interval <= 0 {
		panic(fmt.Sprintf("fleet: queue guard interval %v must be positive", interval))
	}
	if thresholdBytes < 0 {
		panic(fmt.Sprintf("fleet: queue guard threshold %d bytes is negative", thresholdBytes))
	}
	g := &queueGuard{s: s, threshold: thresholdBytes, interval: interval}
	s.AfterActor(interval, (*guardSample)(g))
	return g
}

// watch adds a link direction to the sampled set and returns its record.
func (g *queueGuard) watch(end *netsim.LinkEnd) *queueWatch {
	w := &queueWatch{end: end}
	g.watched = append(g.watched, w)
	return w
}

// guardSample is the queueGuard as the sim.Actor of its sampling timer.
type guardSample queueGuard

func (g *guardSample) Fire() { (*queueGuard)(g).sample() }

func (g *queueGuard) sample() {
	now := g.s.Now()
	w := guardWindow{from: now - g.interval, to: now + g.interval}
	for _, q := range g.watched {
		if q.end.QueueDepthBytes() <= g.threshold {
			continue
		}
		if n := len(q.windows); n > 0 && q.windows[n-1].to >= w.from {
			q.windows[n-1].to = w.to // merge adjacent windows
		} else {
			q.windows = append(q.windows, w)
		}
	}
	g.s.AfterActor(g.interval, (*guardSample)(g))
}

// congested reports whether the direction's queue was over the threshold
// anywhere in [from, to].
func (q *queueWatch) congested(from, to sim.Time) bool {
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
