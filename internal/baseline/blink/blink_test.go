package blink

import (
	"math/rand"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/tcp"
	"fancy/internal/traffic"
)

// blinkBed: src — up — down — dst, Blink watching the up switch's ingress,
// failures injected on the up→down link.
type blinkBed struct {
	*netsim.LinkBed
	det *Detector
	drv *traffic.Driver
}

func newBed(t *testing.T, seed int64) *blinkBed {
	t.Helper()
	lc := netsim.LinkConfig{Delay: 5 * sim.Millisecond, RateBps: 10e9}
	b := &blinkBed{LinkBed: netsim.NewLinkBed(sim.New(seed), lc, lc, false)}
	b.det = New(b.Sim, 100)
	b.Up.AddIngressHook(b.det)
	b.drv = traffic.NewDriver(b.Sim, b.Src, b.Dst, tcp.Config{})
	return b
}

func (b *blinkBed) flows(n int, duration sim.Time) {
	rng := rand.New(rand.NewSource(9))
	// Long-lived flows: each carries 100 kbps for the whole experiment so
	// the monitored set stays stable.
	var specs []traffic.FlowSpec
	for i := 0; i < n; i++ {
		specs = append(specs, traffic.FlowSpec{
			Entry: 100, Start: sim.Time(rng.Int63n(int64(200 * sim.Millisecond))),
			Bytes: int64(100e3 / 8 * duration.Seconds()), RateBps: 100e3,
		})
	}
	b.drv.Schedule(specs)
}

func TestBlinkDetectsFullLinkFailure(t *testing.T) {
	b := newBed(t, 1)
	b.flows(40, 10*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(3, 2*sim.Second, 1.0, 100))
	b.Sim.Run(10 * sim.Second)

	if !b.det.Detected() {
		t.Fatal("Blink missed a total failure affecting all flows")
	}
	lat := b.det.FailureAt - 2*sim.Second
	// All flows hit their 200 ms RTO and retransmit within the 800 ms
	// window: detection within ≈1 s, as designed.
	if lat > 1500*sim.Millisecond {
		t.Errorf("detection latency = %v, want ≲1s", lat)
	}
	if b.det.MonitoredFlows == 0 {
		t.Error("no flows monitored")
	}
}

func TestBlinkMissesMinorityGrayFailure(t *testing.T) {
	// §2.3: "Blink fundamentally cannot detect a gray failure that does
	// not affect the majority of the flows crossing a link."
	b := newBed(t, 2)
	b.flows(40, 10*sim.Second)
	// Blackhole 20% of the flows: a severe gray failure, well below the
	// majority vote.
	b.Link.AB.SetFailure(netsim.FailFlows(5, 2*sim.Second, 0.20, 1.0))
	b.Sim.Run(10 * sim.Second)

	if b.det.Detected() {
		t.Fatalf("Blink claimed detection at %v with only 20%% of flows affected", b.det.FailureAt)
	}
	if b.det.Retransmits == 0 {
		t.Error("affected flows should still retransmit (just not a majority)")
	}
}

func TestBlinkNoFalsePositivesOnCleanTraffic(t *testing.T) {
	b := newBed(t, 3)
	b.flows(40, 6*sim.Second)
	b.Sim.Run(6 * sim.Second)
	if b.det.Detected() {
		t.Fatal("Blink fired without any failure")
	}
}

func TestBlinkFlowEviction(t *testing.T) {
	b := newBed(t, 4)
	// A first wave of maxFlows short flows fills the monitored set; a
	// second wave starts once they have been idle longer than evictAfter.
	const second = 4 * sim.Second
	var specs []traffic.FlowSpec
	for i := 0; i < maxFlows; i++ {
		specs = append(specs, traffic.FlowSpec{Entry: 100, Start: 0, Bytes: 20_000, RateBps: 200e3})
	}
	for i := 0; i < maxFlows; i++ {
		specs = append(specs, traffic.FlowSpec{Entry: 100, Start: second, Bytes: 20_000, RateBps: 200e3})
	}
	b.drv.Schedule(specs)
	b.Sim.Run(second + 2*sim.Second)
	// The second wave must have been admitted after the first went idle.
	if b.det.MonitoredFlows != maxFlows {
		t.Fatalf("monitored set peaked at %d flows, want %d", b.det.MonitoredFlows, maxFlows)
	}
	if len(b.det.flows) == 0 {
		t.Fatal("no flows monitored after eviction cycle")
	}
	for id, st := range b.det.flows {
		if st.lastSeen < second {
			t.Errorf("flow %d from the first wave still monitored after eviction", id)
		}
	}
}

func TestBlinkIgnoresOtherPrefixesAndACKs(t *testing.T) {
	b := newBed(t, 6)
	// Traffic on a different prefix only.
	var specs []traffic.FlowSpec
	for i := 0; i < 10; i++ {
		specs = append(specs, traffic.FlowSpec{Entry: 200, Start: 0, Bytes: 50_000, RateBps: 200e3})
	}
	b.drv.Schedule(specs)
	b.Sim.Run(4 * sim.Second)
	if b.det.MonitoredFlows != 0 {
		t.Errorf("monitored %d flows of an unmonitored prefix", b.det.MonitoredFlows)
	}
}

func TestFlowSelectionFraction(t *testing.T) {
	// The per-flow failure model must select approximately the requested
	// fraction of flows, deterministically.
	selected := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if flowSelectedForTest(netsim.FlowID(i), 0.2) {
			selected++
		}
	}
	frac := float64(selected) / n
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("selected fraction = %.3f, want ≈0.20", frac)
	}
}

// flowSelectedForTest mirrors netsim's internal selection to validate the
// public behaviour through Failure.Drop.
func flowSelectedForTest(flow netsim.FlowID, fraction float64) bool {
	f := netsim.FailFlows(1, 0, fraction, 1.0)
	return f.Drop(&netsim.Packet{Flow: flow, Proto: netsim.ProtoTCP}, 1)
}
