package mgmt

import (
	"testing"

	"fancy/internal/sim"
)

// feed delivers n arrivals at a fixed cadence starting at start, returning
// the time of the last arrival.
func feed(p *PhiDetector, start, cadence sim.Time, n int) sim.Time {
	t := start
	for i := 0; i < n; i++ {
		p.Observe(t)
		t += cadence
	}
	return t - cadence
}

func TestPhiSteadyCadenceStaysLow(t *testing.T) {
	p := NewPhi()
	last := feed(p, 0, 10*sim.Millisecond, 50)
	// Right on cadence: the next expected arrival instant is unremarkable.
	if phi := p.Phi(last + 10*sim.Millisecond); phi >= 8 {
		t.Fatalf("phi at expected arrival = %v, want < threshold", phi)
	}
	if p.Suspect(last + 10*sim.Millisecond) {
		t.Fatal("suspected a peer arriving exactly on cadence")
	}
}

func TestPhiSilenceCrossesThreshold(t *testing.T) {
	p := NewPhi()
	last := feed(p, 0, 10*sim.Millisecond, 50)
	if !p.Suspect(last + sim.Second) {
		t.Fatalf("one second of silence after a 10ms cadence not suspected (phi=%v)",
			p.Phi(last+sim.Second))
	}
	// Monotone in elapsed silence.
	if p.Phi(last+100*sim.Millisecond) > p.Phi(last+200*sim.Millisecond) {
		t.Fatal("phi decreased with longer silence")
	}
}

func TestPhiAdaptsToJitter(t *testing.T) {
	// Tight cadence: 10ms gaps. Jittery cadence: alternating 5/40ms gaps
	// (same order of magnitude, much higher variance).
	tight := newPhiDetector(phiWindow, 0)
	feed(tight, 0, 10*sim.Millisecond, 50)
	jittery := newPhiDetector(phiWindow, 0)
	at := sim.Time(0)
	for i := 0; i < 50; i++ {
		jittery.Observe(at)
		if i%2 == 0 {
			at += 5 * sim.Millisecond
		} else {
			at += 40 * sim.Millisecond
		}
	}
	tl, jl := tight.last, jittery.last
	gap := 80 * sim.Millisecond
	if tight.Phi(tl+gap) <= jittery.Phi(jl+gap) {
		t.Fatalf("tight window should suspect an 80ms gap harder than a jittery one: tight=%v jittery=%v",
			tight.Phi(tl+gap), jittery.Phi(jl+gap))
	}
}

func TestPhiBootstrapHorizon(t *testing.T) {
	p := NewPhi()
	// Never heard: silent until the horizon, suspected past it.
	if p.Suspect(59 * sim.Millisecond) {
		t.Fatal("suspected before bootstrap horizon with no observations")
	}
	if !p.Suspect(60 * sim.Millisecond) {
		t.Fatal("not suspected at bootstrap horizon with no observations")
	}
	// A reset re-anchors the never-heard horizon at the reset time.
	p.Reset(200 * sim.Millisecond)
	if p.Suspect(259 * sim.Millisecond) {
		t.Fatal("suspected before re-anchored bootstrap horizon")
	}
	if !p.Suspect(260 * sim.Millisecond) {
		t.Fatal("not suspected past re-anchored bootstrap horizon")
	}
	// Heard but not warm (fewer than minSamples gaps): horizon counts from
	// the last arrival.
	p.Reset(0)
	p.Observe(100 * sim.Millisecond)
	p.Observe(110 * sim.Millisecond)
	if len(p.window) >= phiMinSamples {
		t.Fatalf("expected cold window, got %d samples", len(p.window))
	}
	if p.Suspect(110*sim.Millisecond + 59*sim.Millisecond) {
		t.Fatal("cold detector suspected inside the bootstrap horizon")
	}
	if !p.Suspect(110*sim.Millisecond + 60*sim.Millisecond) {
		t.Fatal("cold detector not suspected past the bootstrap horizon")
	}
}

// TestPhiSilentFloor: the second reading. A warm detector suspects a peer
// one missed arrival after a steady cadence but calls it silent only once
// the bootstrap horizon has passed since the last arrival; a peer never
// heard is silent from the start.
func TestPhiSilentFloor(t *testing.T) {
	p := NewPhi()
	if !p.Silent(0) {
		t.Fatal("a peer never heard is not silent")
	}
	last := feed(p, 0, 10*sim.Millisecond, 50)
	if at := last + 30*sim.Millisecond; !p.Suspect(at) || p.Silent(at) {
		t.Fatalf("one missed arrival: suspect %v, silent %v; want suspect and not silent", p.Suspect(at), p.Silent(at))
	}
	if p.Silent(last+UnreachableAfter-1) || !p.Silent(last+UnreachableAfter) {
		t.Fatal("the silence floor is not the bootstrap horizon")
	}
}

func TestPhiDuplicateInstantIgnored(t *testing.T) {
	p := newPhiDetector(phiWindow, 0)
	last := feed(p, 0, 10*sim.Millisecond, 10)
	n := len(p.window)
	p.Observe(last) // duplicated datagram, same instant
	if len(p.window) != n {
		t.Fatalf("duplicate-instant observation changed the window: %d -> %d", n, len(p.window))
	}
}

func TestPhiDeterministic(t *testing.T) {
	mk := func() float64 {
		p := NewPhi()
		at := sim.Time(0)
		for i := 0; i < 200; i++ {
			p.Observe(at)
			at += sim.Time(1+i%7) * sim.Millisecond
		}
		return p.Phi(at + 50*sim.Millisecond)
	}
	a, b := mk(), mk()
	// Identical inputs must yield bit-identical suspicion (pure arithmetic,
	// no wall clock, no randomness).
	if a != b { //lint:allow floateq identical-input determinism check wants bit equality
		t.Fatalf("phi not deterministic: %v vs %v", a, b)
	}
}

// TestPhiWindowAllocatesOnFirstGap: a detector costs its struct until it has
// a gap to record — a peer heard once allocates no window — and the window
// is then allocated whole.
func TestPhiWindowAllocatesOnFirstGap(t *testing.T) {
	var p *PhiDetector
	if got := testing.AllocsPerRun(100, func() { p = NewPhi() }); got != 1 {
		t.Fatalf("NewPhi allocates %.0f objects, want 1", got)
	}
	p.Observe(10 * sim.Millisecond)
	if p.window != nil {
		t.Fatal("the first arrival allocated a window")
	}
	p.Observe(20 * sim.Millisecond)
	if len(p.window) != 1 || cap(p.window) != phiWindow {
		t.Fatalf("window %d/%d after the first gap, want 1/%d", len(p.window), cap(p.window), phiWindow)
	}
}

func TestPhiWindowSlides(t *testing.T) {
	p := newPhiDetector(10, 0)
	// Fill the 10-slot window with slow 50ms gaps, then shift to a fast
	// 5ms cadence; once the window has slid, a 50ms silence — formerly the
	// norm — must look far more suspicious than before.
	last := feed(p, 0, 50*sim.Millisecond, 20)
	before := p.Phi(last + 50*sim.Millisecond)
	last = feed(p, last+5*sim.Millisecond, 5*sim.Millisecond, 20)
	after := p.Phi(last + 50*sim.Millisecond)
	if after <= before {
		t.Fatalf("window did not adapt to the faster cadence: before=%v after=%v", before, after)
	}
	if len(p.window) != 10 {
		t.Fatalf("window grew past its cap: %d", len(p.window))
	}
}
