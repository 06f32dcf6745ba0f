package fancy

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// strawBed wires a strawman sender/receiver pair on the two-switch
// topology of the main testbed.
type strawBed struct {
	*testbed
	snd *StrawmanSender
	rcv *StrawmanReceiver
}

func newStrawBed(t *testing.T, cfg StrawmanConfig, reverse *netsim.Failure, seed int64) *strawBed {
	t.Helper()
	sb := &strawBed{testbed: newBareTestbed(seed)}
	sb.snd = NewStrawmanSender(sb.s, sb.up, 1, cfg)
	sb.rcv = NewStrawmanReceiver(sb.s, sb.down, 0, sb.snd, reverse, cfg)
	return sb
}

func TestStrawmanMemoryScalesWithHistory(t *testing.T) {
	base := StrawmanConfig{History: 1}
	quad := StrawmanConfig{History: 4}
	if quad.MemoryBits() <= base.MemoryBits() {
		t.Fatal("history must cost memory")
	}
	// §4.1: reliability across k sessions consumes ≈k× the memory of a
	// single session's counters.
	if got := quad.MemoryBits() - 16; got != 4*(base.MemoryBits()-16) {
		t.Errorf("memory = %d bits, want 4× the single-session counters", got)
	}
}

func TestStrawmanDetectsPartialLossLossless(t *testing.T) {
	cfg := StrawmanConfig{Entry: 7, History: 2}
	sb := newStrawBed(t, cfg, nil, 1)
	sb.udp(7, 2e6, 0, 5*sim.Second)
	sb.failEntries(1*sim.Second, 0.5, 7)
	sb.s.Run(5 * sim.Second)

	if sb.snd.Mismatches == 0 {
		t.Fatal("strawman missed a 50% loss with a lossless reverse path")
	}
	if sb.snd.FlaggedAt < sim.Second || sb.snd.FlaggedAt > 1500*sim.Millisecond {
		t.Errorf("flagged at %v, want shortly after 1s", sb.snd.FlaggedAt)
	}
	if f := sb.snd.VerifiedFraction(); f < 0.9 {
		t.Errorf("verified fraction = %.2f on a lossless reverse path", f)
	}
	// Continuous counting: no false mismatches before the failure means
	// the session tags kept both sides consistent.
}

func TestStrawmanLosesMeasurementsUnderReverseLoss(t *testing.T) {
	// §4.1's core criticism: a lost report permanently loses the session;
	// with 50% reverse loss and history 1, about half the measurements
	// are gone.
	cfg := StrawmanConfig{Entry: 7, History: 1}
	reverse := netsim.FailUniform(3, 0, 0.5)
	sb := newStrawBed(t, cfg, reverse, 2)
	sb.udp(7, 2e6, 0, 5*sim.Second)
	sb.s.Run(5 * sim.Second)

	f := sb.snd.VerifiedFraction()
	if f > 0.65 || f < 0.35 {
		t.Errorf("verified fraction = %.2f under 50%% reverse loss, want ≈0.5", f)
	}
	if sb.rcv.ReportsLost == 0 {
		t.Error("no reports recorded as lost")
	}
}

func TestStrawmanBlindDuringBlackhole(t *testing.T) {
	// The receiver only reports when it SEES a tag from a new session: a
	// blackhole starves it of packets entirely, so sessions go
	// unverified and the strawman cannot even flag the failure. FANcY's
	// control-driven Stop/Report does not have this problem.
	cfg := StrawmanConfig{Entry: 7, History: 2}
	sb := newStrawBed(t, cfg, nil, 3)
	sb.udp(7, 2e6, 0, 6*sim.Second)
	sb.failEntries(1*sim.Second, 1.0, 7)
	sb.s.Run(6 * sim.Second)

	if sb.snd.Mismatches > 1 {
		// At most the boundary session straddling the failure start can
		// be verified-with-mismatch; after that the receiver is starved.
		t.Errorf("mismatches = %d; blackhole should starve the strawman's reporting", sb.snd.Mismatches)
	}
	if sb.snd.Lost == 0 {
		t.Error("expected lost measurements while the receiver is starved")
	}
}
