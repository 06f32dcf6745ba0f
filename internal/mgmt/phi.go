package mgmt

// Phi-accrual adaptive failure detection (Hayashibara et al., "The φ
// Accrual Failure Detector"; applied adaptively per Satzger et al., "A New
// Adaptive Accrual Failure Detector for Dependable Distributed Systems").
//
// A fixed liveness timeout is the wrong tool on a management network whose
// delay distribution moves: a constant tuned for the quiet network false-
// suspects under loss-driven retry jitter, and one tuned for the stormy
// network detects real crashes late. The accrual detector instead keeps a
// sliding window of observed heartbeat inter-arrival times and outputs a
// continuous suspicion level
//
//	phi(t) = -log10( P(no arrival gap this long | observed gaps) )
//
// using a normal approximation of the windowed distribution. phi ≈ 1 means
// "a gap this long happens about once in 10 gaps"; phi ≥ 8 means the
// current silence is astronomically unlikely under the observed behavior —
// the peer is gone. Because the window tracks whatever jitter the channel
// currently exhibits (loss-induced retransmission gaps included), the
// threshold keeps its meaning as conditions change: suspicion latency
// stretches under heavy loss and tightens on a quiet network, with no
// re-tuning.
//
// Everything here is pure arithmetic over sim.Time values — deterministic
// for a deterministic input schedule, with no wall clock and no randomness.

import (
	"math"

	"fancy/internal/sim"
)

// The suspicion parameters both consumers (the liveness sweep and replica
// election) share.
const (
	// phiThreshold is the suspicion level treated as failure.
	phiThreshold = 8.0
	// phiWindow is the inter-arrival sample window size.
	phiWindow = 100
	// phiMinSamples is the warm-up floor: below it the detector falls back
	// to its bootstrap horizon instead of trusting statistics of two or
	// three gaps.
	phiMinSamples = 5
	// minPhiStdDev keeps the normal approximation honest on a perfectly
	// regular channel: a zero-variance window would make any gap infinitely
	// suspicious, so the spread is floored at 100 µs.
	minPhiStdDev = 100 * sim.Microsecond
)

// PhiDetector is one monitored peer's accrual state. The zero value is not
// usable; construct with NewPhi.
type PhiDetector struct {
	bootstrap sim.Time // fixed horizon used until the window warms up

	// window is the inter-arrival ring buffer of size slots, allocated on
	// the first gap: a peer never heard twice costs only the struct.
	window []sim.Time
	size   int
	next   int // ring write cursor

	last  sim.Time // most recent arrival
	born  sim.Time // when monitoring (re)started; anchors the bootstrap horizon
	heard bool
}

// NewPhi builds the detector both liveness consumers use, bootstrapped by
// the fixed UnreachableAfter horizon.
func NewPhi() *PhiDetector { return newPhiDetector(phiWindow, UnreachableAfter) }

// newPhiDetector builds a detector over a window of the given size with the
// given bootstrap horizon (0: none).
func newPhiDetector(window int, bootstrap sim.Time) *PhiDetector {
	return &PhiDetector{bootstrap: bootstrap, size: window}
}

// Observe records one arrival (heartbeat, ack, or any sign of life) at now.
// Out-of-order observations (now before the last arrival) are ignored: the
// simulator delivers in timestamp order, but duplicated datagrams can share
// an instant.
func (p *PhiDetector) Observe(now sim.Time) {
	if p.heard {
		gap := now - p.last
		if gap <= 0 {
			return // duplicate delivery within the same instant
		}
		if p.window == nil {
			p.window = make([]sim.Time, 0, p.size)
		}
		if len(p.window) < p.size {
			p.window = append(p.window, gap)
		} else {
			p.window[p.next] = gap
		}
		p.next = (p.next + 1) % p.size
	}
	p.last = now
	p.heard = true
}

// Heard reports whether the peer was ever observed.
func (p *PhiDetector) Heard() bool { return p.heard }

// warm reports whether the window holds enough samples to trust.
func (p *PhiDetector) warm() bool { return len(p.window) >= phiMinSamples }

// Phi returns the current suspicion level at now. Before the first arrival,
// or before the window warms up, it returns 0 below the bootstrap horizon
// and exactly the threshold at or beyond it (so Suspect degrades to the
// legacy fixed-timeout behavior during warm-up).
func (p *PhiDetector) Phi(now sim.Time) float64 {
	if !p.heard || !p.warm() {
		if p.heard && p.bootstrap > 0 && now-p.last >= p.bootstrap {
			return phiThreshold
		}
		if !p.heard && p.bootstrap > 0 && now-p.born >= p.bootstrap {
			return phiThreshold // never heard at all: suspect past the horizon
		}
		return 0
	}
	elapsed := now - p.last
	if elapsed <= 0 {
		return 0
	}
	mean, sd := p.stats()
	// P(gap >= elapsed) under the normal approximation; phi = -log10 of it.
	z := (float64(elapsed) - mean) / sd
	pLater := 0.5 * math.Erfc(z/math.Sqrt2)
	if pLater < 1e-300 {
		pLater = 1e-300 // clamp: keep phi finite and comparisons total
	}
	return -math.Log10(pLater)
}

// stats computes the windowed mean and (floored) standard deviation.
func (p *PhiDetector) stats() (mean, sd float64) {
	var sum float64
	for _, g := range p.window {
		sum += float64(g)
	}
	n := float64(len(p.window))
	mean = sum / n
	var varsum float64
	for _, g := range p.window {
		d := float64(g) - mean
		varsum += d * d
	}
	sd = math.Sqrt(varsum / n)
	if sd < float64(minPhiStdDev) {
		sd = float64(minPhiStdDev)
	}
	return mean, sd
}

// Suspect reports whether the suspicion level has crossed the threshold.
func (p *PhiDetector) Suspect(now sim.Time) bool {
	return p.Phi(now) >= phiThreshold
}

// Silent is the second reading, an anti-flap floor under Suspect: whether
// the peer was never heard or has been silent for the bootstrap horizon. On
// a freshly warmed window of near-constant gaps one lost arrival already
// looks astronomically suspicious; it does not yet look silent.
func (p *PhiDetector) Silent(now sim.Time) bool { return !p.heard || now-p.last >= p.bootstrap }

// Reset forgets everything (peer restarted from scratch, or the monitor
// changed targets): the next Observe starts a fresh window, and the
// bootstrap horizon re-anchors at now — a freshly reset detector grants the
// peer a full grace period before silence counts against it.
func (p *PhiDetector) Reset(now sim.Time) {
	p.window = p.window[:0]
	p.next = 0
	p.heard = false
	p.last = 0
	p.born = now
}
